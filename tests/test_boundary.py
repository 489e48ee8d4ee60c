"""Boundary sweep of the public API: a bad number is rejected or does no harm.

``CASES`` gives each public callable of ``contour``, ``vstates``,
``spectrum``, ``greens``, ``specfun`` and ``numerics`` one valid small
call and names its numeric parameters.  Each scalar parameter, and the
first entry of each sequence or array parameter, takes nan, inf and -inf
in turn, and integer parameters take 2.5 as well.  The call must raise
DomainError, GridError or GeometryError, or return a value whose float
leaves are all finite; warnings are errors under ``pyproject.toml``.

Not swept:

* the result dataclasses (``RESULTS``), which the package builds from
  arguments it has already checked;
* ``numerics``' FFT helpers (``EXEMPT``), which take the samples of a
  state that every caller inside ``rhs`` has already checked; an alias
  imported into a swept module is skipped, as its ``__module__`` differs.
"""

import dataclasses
import math

import numpy as np
import pytest

from vortexalpha import contour, errors, greens, numerics, specfun, spectrum, vstates
from vortexalpha.errors import DomainError, GeometryError, GridError

MODULES = (contour, vstates, spectrum, greens, specfun, numerics)
RESULTS = {
    "contour.Diagnostics",
    "spectrum.MarginReport",
    "vstates.CRReport",
    "vstates.BranchPoint",
    "vstates.FunctionalValue",
    "greens.PairPlan",
}
EXEMPT = {
    "numerics.spectral_derivative",
    "numerics.dealias_twothirds",
    "numerics.sine_coefficients",
}
BAD = (math.nan, math.inf, -math.inf)

THETA = 2 * np.pi * np.arange(64) / 64
PATCH = contour.RadialPatch(0.01 * np.cos(2 * THETA), 0.5, 0.3)
PERT = vstates.ConformalPerturbation([0.0, 0.01], fold=2)
POINT = vstates.BranchPoint(
    m=2, alpha=0.7, Omega=spectrum.omega_bifurcation(2, 0.7), perturbation=PERT,
    residual=0.0, amplitude=0.01, alias_tail=0.0, newton_steps=0,
    residual_history=(0.0,), jacobians=1,
)
LINEAR = dict(S=[2, 3], amplitudes=[0.01, 0.005], Omega=0.5, alpha=0.3, t=0.1, M=64)
MARGIN = dict(Omega=0.5, alpha_interval=(0.3, 0.7), q0=2, j=5, j0=4, npts=201)


def name_of(fn):
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def case(fn, reals="", integers="", **kwargs):
    """(callable, valid keyword arguments, real parameters, integer parameters)."""
    return fn, kwargs, reals.split(), integers.split()


CASES = [
    case(contour.RadialPatch, "samples rotation_offset alpha", "fold",
         samples=0.01 * np.cos(2 * THETA), rotation_offset=0.5, alpha=0.3, fold=2),
    case(contour.rhs, patch=PATCH),
    case(contour.linearized_rhs, "direction", patch=PATCH, direction=1e-3 * np.sin(3 * THETA)),
    case(contour.default_timestep, patch=PATCH),
    case(contour.step_rk4, "dt", patch=PATCH, dt=0.01),
    case(contour.evolve, "T dt", "snapshot_every", patch=PATCH, T=0.02, dt=None, snapshot_every=1),
    case(contour.diagnostics, "", "n_radial", patch=PATCH, n_radial=None),
    case(contour.linear_qp_solution, "amplitudes Omega alpha t", "S M", **LINEAR),
    case(contour.qp_residual, "amplitudes Omega alpha t", "S M", **LINEAR),
    case(contour.vstate_to_radial, "", "M", branch_point=POINT, M=64),
    case(vstates.ConformalPerturbation, "coefficients", "fold", coefficients=[0.0, 0.01], fold=2),
    case(vstates.evaluate_F, "alpha Omega", "grid_size",
         alpha=0.7, Omega=0.5, perturbation=PERT, grid_size=32),
    case(vstates.check_crandall_rabinowitz, "alpha Omega", "m n_max",
         alpha=0.7, m=2, n_max=5, Omega=0.5),
    case(vstates.continue_branch, "alpha amplitudes tol", "m band grid_size max_steps",
         alpha=0.7, m=2, amplitudes=[1e-4], band=2, grid_size=32, tol=1e-10, max_steps=10),
    case(spectrum.omega_sw, "lam", "m", m=2, lam=1.5),
    case(spectrum.omega_bifurcation, "alpha", "m", m=2, alpha=0.7),
    case(spectrum.omega_infinity, "alpha", alpha=0.7),
    case(spectrum.bifurcation_table, "alphas", "m_max", m_max=3, alphas=[0.3, 0.7]),
    case(spectrum.equilibrium_frequency, "Omega alpha", "j", j=2, Omega=0.5, alpha=0.7),
    case(spectrum.equilibrium_matrix, "Omega alpha_grid", "js",
         js=[2, -3], Omega=0.5, alpha_grid=[0.3, 0.7]),
    case(spectrum.v0_curve, "Omega alpha_grid", Omega=0.5, alpha_grid=[0.3, 0.7]),
    case(spectrum.transversality_report, "Omega alpha_interval", "S l q0 j j0 npts",
         S=(2, 3), l=(1, -1), variant="difference", **MARGIN),
    case(spectrum.difference_derivative_bound, "Omega alpha_interval", "q0 j j0 npts", **MARGIN),
    case(spectrum.check_nondegeneracy, "Omega alpha_interval", "S n_samples",
         S=(2, 3), Omega=0.5, alpha_interval=(0.3, 0.7), augment="V0", n_samples=20),
    case(greens.pair_plan, "", "M period", M=64, period=32, reflect=True),
    case(greens.green_kernel, "alpha rho", alpha=0.3, rho=[0.5, 1.0]),
    case(greens.combined_boundary_kernel, "alpha rho", alpha=0.3, rho=[0.0, 0.5, 1.0]),
    case(specfun.k0_array, "x", x=[0.5, 5.0]),
    case(specfun.product_IK_array, "x", "nmax", nmax=3, x=[0.5, 2.0]),
    case(numerics.central_fd_stencil, "h", "deriv order", deriv=2, order=4, h=0.1),
]


def with_first(valid, bad):
    """``bad`` in place of a scalar, or of the first entry of a sequence or array."""
    if isinstance(valid, np.ndarray):
        out = valid.astype(float)
        out.flat[0] = bad
        return out
    if isinstance(valid, (list, tuple)):
        return type(valid)([bad, *valid[1:]])
    return bad


SWEEP = [
    pytest.param(fn, {**kwargs, name: with_first(kwargs[name], bad)},
                 id=f"{name_of(fn)}-{name}={bad}")
    for fn, kwargs, reals, integers in CASES
    for name in reals + integers
    for bad in BAD + ((2.5,) if name in integers else ())
]


def float_leaves(value):
    """Every float, complex and floating array inside a result."""
    if dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from float_leaves(getattr(value, field.name))
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from float_leaves(item)
    elif isinstance(value, (float, complex)) or (
        isinstance(value, np.ndarray) and value.dtype.kind in "fc"
    ):
        yield value


def is_finite(value):
    return all(np.isfinite(leaf).all() for leaf in float_leaves(value))


@pytest.mark.parametrize("fn, kwargs", SWEEP)
def test_bad_number_is_rejected_or_harmless(fn, kwargs):
    try:
        out = fn(**kwargs)
    except (DomainError, GridError, GeometryError):
        return
    assert is_finite(out)


@pytest.mark.parametrize("fn, kwargs, reals, integers", CASES, ids=[name_of(c[0]) for c in CASES])
def test_valid_call_is_finite(fn, kwargs, reals, integers):
    assert set(reals + integers) <= set(kwargs)
    assert is_finite(fn(**kwargs))


def test_every_public_callable_is_swept():
    public = {
        f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
        for module in MODULES
        for name, obj in vars(module).items()
        if callable(obj)
        and not name.startswith("_")
        and getattr(obj, "__module__", None) == module.__name__
    }
    swept = {name_of(fn) for fn, *_ in CASES}
    assert swept.isdisjoint(RESULTS | EXEMPT)
    assert public == swept | RESULTS | EXEMPT


def test_domain_helpers_live_in_errors():
    for module in MODULES:
        for helper in ("_integer", "_positive", "_finite"):
            assert getattr(module, helper, None) in (None, getattr(errors, helper))


class TestDomainHelpers:
    @pytest.mark.parametrize("helper", [errors._positive, errors._finite])
    def test_scalars_give_floats_and_arrays_float_arrays(self, helper):
        assert type(helper(2, "x")) is float and type(helper(np.float64(0.5), "x")) is float
        assert type(helper(np.int64(3), "x")) is float
        out = helper([1, 2], "x")
        assert out.dtype == float and out.tolist() == [1.0, 2.0]

    @pytest.mark.parametrize(
        "helper, value, message",
        [
            (errors._positive, 0.0, "alpha must be positive and finite, got 0.0$"),
            (errors._positive, [0.5, math.inf, -1.0], "got inf at entry 1$"),
            (errors._positive, np.float64(math.nan), "got nan$"),
            (errors._finite, [[1.0, 2.0], [-math.inf, 0.0]], "got -inf at entry 2$"),
            (errors._finite, math.nan, "alpha must be finite, got nan$"),
        ],
    )
    def test_error_names_the_parameter_and_first_bad_entry(self, helper, value, message):
        with pytest.raises(DomainError, match=message):
            helper(value, "alpha")

    def test_finite_accepts_zero_and_negatives(self):
        assert errors._finite(-0.0, "x") == 0.0 and errors._finite(-3, "x") == -3.0

    @pytest.mark.parametrize("value, least", [(2.5, None), ("3", None), (math.nan, 0), (1, 2)])
    def test_integer_rejects(self, value, least):
        with pytest.raises(DomainError):
            errors._integer(value, "n", least)

    def test_integer_accepts_integral_values_at_the_bound(self):
        assert type(errors._integer(4.0, "n", least=4)) is int
        assert errors._integer(np.int64(-1), "n") == -1
