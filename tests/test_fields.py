import numpy as np
import pytest

from pdwg.fields import (
    DerivedLoad,
    Field,
    HalfPlane,
    Piecewise,
    SCALAR_FIELDS,
    constant,
    constant_vector,
    evaluate_branches,
    field_from_config,
    rotation,
)
from helpers import refined, same_bits, tables_for
from pdwg.assembly import ProblemSpec, build_contexts


def derived_spec(exact, beta=constant_vector(1.0, -1.0), c=constant(1.0)):
    """A problem whose load is derived from ``exact``."""
    return ProblemSpec(beta=beta, c=c, f=DerivedLoad(exact), g=constant(0.0), tau=0.0, domain_tag="unit_square")


class TestHalfPlane:
    def test_strict_inequality(self):
        plane = HalfPlane(1.0, 1.0, 1.0)
        assert plane.contains(0.3, 0.3)
        assert not plane.contains(0.5, 0.5)  # on the line
        assert not plane.contains(0.8, 0.8)


class TestPiecewise:
    def pw(self):
        return Piecewise(
            "flip",
            pieces=((HalfPlane(1.0, 1.0, 1.0), constant_vector(1.0, -1.0)),),
            otherwise=constant_vector(-1.0, 1.0),
        )

    def test_branch_selection(self):
        beta = self.pw()
        lower = beta.branches[int(beta.branch_index(0.2, 0.2))]
        upper = beta.branches[int(beta.branch_index(0.8, 0.8))]
        assert lower(np.array([0.0]), np.array([0.0]))[0][0] == 1.0
        assert upper(np.array([0.0]), np.array([0.0]))[0][0] == -1.0

    def test_bind_resolves_branch(self):
        beta = self.pw()
        bound = beta.branches[int(beta.branch_index(0.1, 0.1))]
        assert bound.div(np.array([0.5]), np.array([0.5]))[0] == 0.0
        single = constant_vector(2.0, 0.0)
        plain = single.branches[int(single.branch_index(0.0, 0.0))]
        assert plain(np.array([1.0]), np.array([1.0]))[0][0] == 2.0

    def test_pointwise_scalar_evaluation(self):
        field = Piecewise(
            "sign",
            pieces=((HalfPlane(1.0, 0.0, 0.0), constant(-1.0)),),
            otherwise=constant(1.0),
        )
        x = np.array([-0.5, 0.5, -2.0])
        y = np.zeros(3)
        assert np.allclose(field(x, y), [-1.0, 1.0, -1.0])

    def test_ridge_with_plateau_continuous_at_ray(self):
        # the plateau value 20/7 matches the ridge on the dividing ray
        field = SCALAR_FIELDS["ridge_with_plateau"]
        rho = np.tan(np.pi / 6.0)
        x = np.linspace(0.05, 0.8, 7)
        on_ray = field(x, rho * x)
        assert np.allclose(on_ray, 20.0 / 7.0, atol=1e-12)
        below = field(x, rho * x - 1e-9)
        assert np.allclose(below, 20.0 / 7.0, atol=1e-6)

    def test_piecewise_gradient(self):
        field = SCALAR_FIELDS["ridge_with_plateau"]
        plateau = field.branches[int(field.branch_index(0.5, 0.01))]
        assert plateau.name == "plateau"
        gx, gy = plateau.grad(np.array([0.5]), np.array([0.01]))
        assert gx[0] == 0.0 and gy[0] == 0.0
        # ridge side at the crest (w = 0): gradient vanishes there too
        ridge = field.branches[int(field.branch_index(0.0, 0.5))]
        assert ridge.name == "ridge"
        gx, gy = ridge.grad(np.array([0.0]), np.array([0.5]))
        assert gy[0] == pytest.approx(0.0, abs=1e-12)

    def test_vector_composition_has_no_gradient(self):
        beta = Piecewise(
            "flip", ((HalfPlane(1.0, 1.0, 1.0), constant_vector(1.0, -1.0)),), constant_vector(-1.0, 1.0)
        )
        with pytest.raises(ValueError, match="exact_u has no gradient on branch 'const\\(1,-1\\)'"):
            derived_spec(beta)


class TestEvaluateBranches:
    @pytest.mark.parametrize(
        "field, method",
        [
            (SCALAR_FIELDS["sin_pix_cos_piy"], "__call__"),
            (SCALAR_FIELDS["sin_pix_cos_piy"], "grad"),
            (SCALAR_FIELDS["ridge"], "grad"),
            (constant(2.5), "__call__"),
            (constant(2.5), "grad"),
            (rotation(0.5, 0.5), "__call__"),
            (constant_vector(1.0, -1.0), "div"),
        ],
        ids=["sin-value", "sin-grad", "ridge-grad", "const-value", "const-grad", "rotation", "const-div"],
    )
    def test_one_branch_equals_the_masked_path(self, field, method):
        # Strided quadrature coordinates, as the element tables pass them.
        tables = tables_for(refined("l_shape", 2))
        x, y = tables.qpts[..., 0], tables.qpts[..., 1]
        idx = np.zeros((len(x), 1), dtype=np.intp)
        fast = evaluate_branches((field,), idx, x, y, method)
        # A second branch that holds no point takes the masked path.
        masked = evaluate_branches((field, field), idx, x, y, method)
        assert same_bits(fast, masked)

    def test_one_branch_broadcasts_points_and_branch_indices(self):
        field = SCALAR_FIELDS["sin_x_cos_y"]
        x, y, idx = np.linspace(0.0, 1.0, 4), np.array(0.3), np.zeros((3, 1), dtype=np.intp)
        out = evaluate_branches((field,), idx, x, y)
        assert out.shape == (3, 4)
        assert same_bits(out, evaluate_branches((field, field), idx, x, y))


class TestDerivedLoad:
    def test_transport_identity(self):
        tables = build_contexts(refined("unit_square", 1), derived_spec(SCALAR_FIELDS["sin_x_cos_y"]))
        x, y = tables.qpts[..., 0], tables.qpts[..., 1]
        expected = np.cos(x) * np.cos(y) + np.sin(x) * np.sin(y) + np.sin(x) * np.cos(y)
        assert np.allclose(tables.f_q, expected, rtol=0, atol=1e-14)

    def test_requires_gradient(self):
        with pytest.raises(ValueError, match="exact_u has no gradient on branch 'cos_5y'"):
            derived_spec(SCALAR_FIELDS["cos_5y"])

    def test_requires_divergence(self):
        beta = Field("no_div", lambda x, y: (x, y))
        with pytest.raises(ValueError, match="beta has no divergence on branch 'no_div'"):
            derived_spec(SCALAR_FIELDS["one"], beta=beta)


class TestRotation:
    def test_field_and_divergence(self):
        beta = rotation(0.5, 0.5)
        bx, by = beta(np.array([1.0]), np.array([2.0]))
        assert (bx[0], by[0]) == (1.5, -0.5)
        assert beta.div(np.array([3.0]), np.array([4.0]))[0] == 0.0


class TestConfig:
    def test_scalar_forms(self):
        assert field_from_config(2.5)(np.zeros(1), np.zeros(1))[0] == 2.5
        assert field_from_config({"const": -3})(np.zeros(1), np.zeros(1))[0] == -3.0
        named = field_from_config({"name": "sin_x"})
        assert named(np.array([0.5]), np.array([0.0]))[0] == pytest.approx(np.sin(0.5))

    def test_vector_forms(self):
        v = field_from_config({"rotation": [0.0, 0.0]}, vector=True)
        bx, by = v(np.array([2.0]), np.array([1.0]))
        assert (bx[0], by[0]) == (1.0, -2.0)

    def test_piecewise_config(self):
        v = field_from_config(
            {
                "piecewise": [{"where": [1, 1, 1], "field": {"const": [1, -1]}}],
                "else": {"const": [-1, 1]},
            },
            vector=True,
        )
        assert v.branches[int(v.branch_index(0.1, 0.1))](np.zeros(1), np.zeros(1))[0][0] == 1.0

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            field_from_config({"mystery": 1})
        with pytest.raises(ValueError):
            field_from_config({"name": "no_such"}, vector=True)
        with pytest.raises(ValueError):
            field_from_config([1, 2], vector=True)

    def test_piecewise_missing_key_named(self):
        with pytest.raises(ValueError, match="missing the key 'else'"):
            field_from_config({"piecewise": [{"where": [1, 1, 1], "field": 1}]})
        with pytest.raises(ValueError, match="missing the key 'field'"):
            field_from_config({"piecewise": [{"where": [1, 1, 1]}], "else": 1})

    def test_kinds_do_not_mix(self):
        for spec in ({"rotation": [0, 0]}, {"name": "oblique_30deg"}, {"const": [1, 2]}):
            with pytest.raises(ValueError):
                field_from_config(spec)
        for spec in (1.0, {"name": "sin_x"}, {"const": 1}):
            with pytest.raises(ValueError):
                field_from_config(spec, vector=True)


def test_step_field_sides():
    g = SCALAR_FIELDS["step_pm1"]
    assert g(np.array([0.0]), np.array([0.4]))[0] == 1.0
    assert g(np.array([0.6]), np.array([1.0]))[0] == -1.0
