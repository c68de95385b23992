import ast
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import guidewave
from guidewave import discretize
from guidewave.discretize import (HOLE_EDGE_WIDTH, DampingProfile, Grid1D, WeightSpec,
                                  gradient_1d, mode_operator)
from guidewave.errors import SolveError
from guidewave.resolvent import heat_model_operator

from dense_oracles import dense_laplacian, dense_operator

#: dense assembly and factorization routines; only the tests may call them
DENSE_ROUTINES = frozenset({"eye", "diag", "toeplitz", "inv", "eig", "eigvals", "eigh",
                            "svd", "svdvals", "as_dense"})


def test_grid_geometry():
    g = Grid1D(X=40.0, N=512)
    assert g.h == pytest.approx(80.0 / 513)
    assert np.allclose(g.xs, -g.xs[::-1])
    with pytest.raises(ValueError):
        Grid1D(X=40.0, N=8)


@pytest.mark.parametrize("order", [2, 4])
def test_refine_keeps_the_stencil_order(order):
    g = Grid1D(X=40.0, N=511, order=order).refine(1.5)
    assert (g.X, g.N, g.order) == (60.0, 767, order)


class TestLaplacian:
    def test_symmetric_negative(self, grid40, rng):
        for order in (2, 4):
            dense = dense_laplacian(replace(grid40, order=order))
            assert np.array_equal(dense, dense.T)
            for _ in range(5):
                u = rng.standard_normal(grid40.N)
                assert np.dot(u, dense @ u) <= 1e-10

    def test_lowest_cap_mode_rayleigh(self):
        g = Grid1D(X=10.0, N=400)
        target = (math.pi / (2 * g.X)) ** 2
        mode = np.sin(math.pi * (g.xs + g.X) / (2 * g.X))
        for order in (2, 4):
            lap = replace(g, order=order).laplacian
            rq = -np.dot(mode, lap.apply(mode)) / np.dot(mode, mode)
            assert abs(rq - target) <= target * g.h ** 2

    def test_order2_cap_mode_is_exact_eigenvector(self):
        g = Grid1D(X=10.0, N=200, order=2)
        lap = g.laplacian
        mode = np.sin(math.pi * (g.xs + g.X) / (2 * g.X))
        exact = -(2.0 - 2.0 * math.cos(math.pi / (g.N + 1))) / g.h ** 2
        assert np.allclose(lap.apply(mode), exact * mode, atol=1e-12)

    def test_constant_vector_interior_rows(self, grid40):
        lap = grid40.laplacian
        out = lap.apply(np.ones(grid40.N))
        assert np.max(np.abs(out[2:-2])) <= 1e-10 / grid40.h ** 2 * 1e-2

    def test_plane_wave_symbol_order4(self):
        g = Grid1D(X=40.0, N=1599)  # h = 0.05
        lap = g.laplacian
        u = np.exp(1j * g.xs)
        mid = g.N // 2
        err = abs((lap.apply(u) / u)[mid] + 1.0)
        assert err <= 1e-4

    def test_order4_dispersion_beats_order2(self):
        g = Grid1D(X=40.0, N=799)
        u = np.exp(1j * 1.0 * g.xs)
        mid = g.N // 2
        errs = {}
        for order in (2, 4):
            lap = replace(g, order=order).laplacian
            errs[order] = abs((lap.apply(u) / u)[mid] + 1.0)
        assert errs[4] < errs[2] / 50

    def test_mode_block_matches_rows(self, grid40, rng):
        # apply and gradient_1d act on the last axis, so a (K, N) block is one call
        block = rng.standard_normal((3, grid40.N))
        for order in (2, 4):
            g = replace(grid40, order=order)
            lap = g.laplacian
            assert np.array_equal(lap.apply(block), np.stack([lap.apply(r) for r in block]))
            assert np.array_equal(gradient_1d(block, g),
                                  np.stack([gradient_1d(r, g) for r in block]))

    def test_gradient_order4_accuracy(self):
        g = Grid1D(X=30.0, N=2048)
        u = np.exp(-g.xs ** 2 / 8.0)
        du = gradient_1d(u, g)
        exact = -g.xs / 4.0 * u
        assert np.max(np.abs(du - exact)) <= 1e-8

    def test_rejects_bad_order_and_bc(self):
        # the homogeneous cap is the only end condition, so only the grid's stencil
        # order can be wrong
        for order in (3, 6):
            with pytest.raises(ValueError, match="stencil order must be 2 or 4"):
                Grid1D(X=40.0, N=512, order=order)


class TestSpectrum:
    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("grid", [Grid1D(X=20.0, N=16), Grid1D(X=20.0, N=17),
                                      Grid1D(X=20.0, N=64), Grid1D(X=20.0, N=65),
                                      Grid1D(X=20.0, N=128).refine(1.5)],
                             ids=lambda g: f"N{g.N}")
    def test_matches_dense_oracle_within_its_error(self, grid, order):
        g = replace(grid, order=order)
        mu = g.spectrum
        assert mu.shape == (g.N,)
        assert np.all(np.diff(mu) >= 0.0)
        exact = np.sort(-np.linalg.eigvalsh(dense_laplacian(g)))
        assert np.max(np.abs(mu - exact)) <= g.spectrum_error

    @pytest.mark.parametrize("n, orders", [(4096, [2048, 2048]), (6145, [3073, 3072])])
    def test_solves_two_half_size_blocks(self, n, orders, monkeypatch):
        # the reflection x -> -x halves the band eigensolve; one solve of order N
        # would cost about twice as much
        calls = []

        def spy(bands, lower, eigvals_only):
            calls.append(bands.shape[1])
            return np.zeros(bands.shape[1])

        monkeypatch.setattr(discretize, "eig_banded", spy)
        assert Grid1D(X=20.0, N=n).spectrum.shape == (n,)
        assert calls == orders


class TestDamping:
    def test_constant(self, grid40):
        a = DampingProfile.build(grid40, "constant", level=1.0)
        assert np.all(a.samples == 1.0)
        assert DampingProfile.build(grid40, "constant", level=0.0).samples.max() == 0.0

    def test_longrange_hypothesis_constants(self):
        g = Grid1D(X=200.0, N=2048)
        for rho in (0.5, 1.0, 2.0):
            a = DampingProfile.build(g, "longrange", rho=rho)
            assert np.all(a.samples >= 0.5 - 1e-14)
            assert np.all(a.samples <= 1.0)
            consts = a.hypothesis_constants()
            assert consts["C0"] <= 4.0
            assert consts["C1"] <= 4.0

    def test_hole_geometry(self):
        g = Grid1D(X=200.0, N=2048)
        a = DampingProfile.build(g, "hole", r=5.0, rho=2.0)
        inside = np.abs(g.xs) <= 5.0
        assert np.max(a.samples[inside]) == 0.0
        outside = np.abs(g.xs) >= 5.0 + HOLE_EDGE_WIDTH
        assert np.min(a.samples[outside]) >= 0.5 - 1e-12
        # C1 smoothing: a'' stays O(1), not O(1/h), across the ramp edge
        da = np.diff(a.samples) / g.h
        assert np.max(np.abs(np.diff(da) / g.h)) < 5.0

    def test_unknown_kind(self, grid40):
        with pytest.raises(ValueError):
            DampingProfile.build(grid40, "checkerboard")

    @pytest.mark.parametrize("kind, params, fragment", [
        ("hole", {"rho": 0.0}, "rho"),
        ("hole", {"rho": -1.0}, "rho"),
        ("hole", {"r": -1.0}, "radius"),
        ("constant", {"level": -0.5}, "level"),
    ], ids=["hole-rho-zero", "hole-rho", "hole-r", "constant-level"])
    def test_negative_absorption_rejected(self, grid40, kind, params, fragment):
        # hole needs rho > 0 and r > 0; a constant level < 0 would be anti-damping
        with pytest.raises(ValueError, match=fragment):
            DampingProfile.build(grid40, kind, **params)

    @pytest.mark.parametrize("kind", ["longrange", "hole"])
    def test_level_rejected_outside_constant(self, grid40, kind):
        # only the constant profile reads level; elsewhere it would be ignored
        with pytest.raises(ValueError, match="level"):
            DampingProfile.build(grid40, kind, level=0.5)
        assert DampingProfile.build(grid40, kind, level=1.0).level == 1.0


class TestModeOperator:
    def test_substitution_z_eq_i(self, grid40, damping_const):
        op = mode_operator(0.0, damping_const, 1j)
        dense = dense_operator(op)
        assert np.max(np.abs(dense.imag)) <= 1e-14
        assert np.allclose(dense.real, -dense_laplacian(grid40) + 2.0 * np.eye(grid40.N))
        u = np.random.default_rng(0).standard_normal(grid40.N)
        assert np.dot(u, dense.real @ u) > 0

    def test_lambda_shift_at_z0(self, grid40, damping_const):
        op = mode_operator(9.0, damping_const, 0.0)
        assert np.allclose(dense_operator(op), -dense_laplacian(grid40) + 9.0 * np.eye(grid40.N))

    def test_shift_is_exactly_diagonal(self, grid40, damping_const):
        z = 0.3 + 0.7j
        d = dense_operator(mode_operator(4.0, damping_const, z)) \
            - dense_operator(mode_operator(4.0, damping_const, 0.0))
        expected = np.diag(-1j * z * damping_const.samples - z * z)
        off = d - np.diag(np.diag(d))
        assert np.max(np.abs(off)) == 0.0
        assert np.allclose(np.diag(d), np.diag(expected), rtol=0, atol=1e-14)

    def test_smallest_singular_value_tracks_tau(self):
        # Fourier multiplier oracle: inf_xi |xi^2 - tau^2 - i tau| = |tau|
        g = Grid1D(X=40.0, N=1024)
        a = DampingProfile.build(g, "constant")
        op = mode_operator(0.0, a, 10.0)
        smin = np.linalg.svd(dense_operator(op), compute_uv=False)[-1]
        assert smin == pytest.approx(10.0, rel=0.05)

    def test_rejects_wrong_shape_damping(self, grid40):
        # a profile holds the grid it is sampled on, and mode_operator reads the grid
        # from it: samples that are not one per node of that grid raise when the
        # profile is made, so no operator can pair them with another grid
        for shape in ((256,), (512, 1), (1, 512)):
            with pytest.raises(ValueError, match=r"shape \(512,\)"):
                DampingProfile(grid=grid40, kind="constant", rho=2.0, r=5.0, level=1.0,
                               samples=np.ones(shape))
        other = DampingProfile.build(Grid1D(X=20.0, N=256), "constant")
        op = mode_operator(0.0, other, 1j)
        assert op.grid is other.grid and op.diag.shape == (256,)

    def test_solve_residual_and_adjoint(self, grid40, damping_const, rng):
        op = mode_operator(1.0, damping_const, 0.5 + 0.2j)
        f = rng.standard_normal(grid40.N) + 1j * rng.standard_normal(grid40.N)
        u = op.solve(f)
        assert np.linalg.norm(op.apply(u) - f) <= 1e-10 * np.linalg.norm(f)
        # adjoint solve consistency: <A^-1 f, g> == <f, (A^H)^-1 g>
        gvec = rng.standard_normal(grid40.N) + 1j * rng.standard_normal(grid40.N)
        lhs = np.vdot(gvec, u)
        rhs = np.vdot(op.solve_adjoint(gvec), f)
        assert abs(lhs - rhs) <= 1e-8 * abs(lhs)


class _WrongLU:
    """The cached LU of an operator, with every answer scaled by 1 + 1e-6 or replaced by NaN."""

    def __init__(self, lu, fault):
        self.lu, self.fault = lu, fault

    def solve(self, f, trans="N"):
        u = self.lu.solve(f, trans=trans)
        return np.full_like(u, np.nan) if self.fault == "nan" else u * (1.0 + 1e-6)


CHECKED_CASES = [(order, kind, z) for order in (2, 4) for kind in ("constant", "hole")
                 for z in (3.0, 0.6 + 0.4j)]


class TestCheckedSolve:
    """Every solve is checked against SOLVE_RTOL, on the operator and on its adjoint."""

    @staticmethod
    def _case(order, kind, z):
        g = Grid1D(X=20.0, N=160, order=order)
        a = DampingProfile.build(g, kind, r=5.0, rho=2.0)
        op = mode_operator(1.0, a, z)
        f = [1.0, 1j] @ np.random.default_rng(3).standard_normal((2, g.N))
        return op, f

    @pytest.mark.parametrize("order, kind, z", CHECKED_CASES)
    def test_apply_matches_dense_oracle(self, order, kind, z):
        op, u = self._case(order, kind, z)
        dense = dense_operator(op)
        for got, mat in ((op.apply(u), dense), (op.apply_adjoint(u), dense.conj().T)):
            want = mat @ u
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("order, kind, z", CHECKED_CASES + [
        (order, "heat model", z) for order in (2, 4) for z in (3.0, 0.6 + 0.4j)])
    def test_solves_match_dense_oracle(self, order, kind, z):
        # the banded LU and its adjoint sweeps against a dense solve, far inside SOLVE_RTOL
        op, f = self._case(order, "constant" if kind == "heat model" else kind, z)
        if kind == "heat model":
            op = heat_model_operator(op.grid, z)
        dense = dense_operator(op)
        for got, mat in ((op.solve(f), dense), (op.solve_adjoint(f), dense.conj().T)):
            want = np.linalg.solve(mat, f)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("fault", ["perturbed", "nan"])
    @pytest.mark.parametrize("order, kind, z", CHECKED_CASES)
    def test_wrong_answer_raises(self, order, kind, z, fault):
        # the exact LU passes the check both ways; a wrong answer fails it both ways
        op, f = self._case(order, kind, z)
        for solve in (op.solve, op.solve_adjoint):
            solve(f)
        op.__dict__["_lu"] = _WrongLU(op._lu, fault)
        for solve in (op.solve, op.solve_adjoint):
            with pytest.raises(SolveError, match="near-singular"):
                solve(f)


class TestWeightSpec:
    def test_valid(self):
        WeightSpec(delta1=1.05, delta2=1.05, s1=0.5, s2=0.5, s=0.5, kappa=1.1) \
            .validate_decay_hypotheses(d=1, rho=2.0)

    def test_violations_are_named(self):
        spec = WeightSpec(delta1=0.0, delta2=0.0, s1=0.0, s2=0.0, s=1.5, kappa=1.1)
        with pytest.raises(ValueError) as err:
            spec.validate_decay_hypotheses(d=1, rho=2.0)
        msg = str(err.value)
        assert "s <= 1" in msg and "min(d, rho)" in msg

    def test_delta_coupling(self):
        spec = WeightSpec(delta1=0.3, delta2=1.0, s1=0.5, s2=0.5, s=0.0, kappa=1.2)
        with pytest.raises(ValueError) as err:
            spec.validate_decay_hypotheses()
        assert "delta1" in str(err.value)


def _package_nodes():
    """(path relative to the package, node) for every ast node of every module."""
    package = Path(guidewave.__file__).parent
    modules = sorted(package.rglob("*.py"))
    assert package / "discretize.py" in modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            yield path.relative_to(package), node


def _called(node) -> str | None:
    """The name a call node calls: ``f`` of ``f(...)`` and of ``a.b.f(...)``."""
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def test_package_calls_no_dense_routine():
    # every production path is banded or matrix-free; dense oracles live in tests/
    calls = []
    for path, node in _package_nodes():
        if isinstance(node, ast.Call) and _called(node) in DENSE_ROUTINES:
            calls.append(f"{path}:{node.lineno} {_called(node)}")
    assert calls == []


def _functions():
    """("path:line name", parameter names) of every function and lambda in the package."""
    for path, node in _package_nodes():
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            names = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                     args.vararg, args.kwarg) if a is not None}
            yield f"{path}:{node.lineno} {getattr(node, 'name', 'lambda')}", names


@pytest.mark.parametrize("name", ["order", "mass", "lap", "map"])
def test_no_function_takes_a_parameter_named(name):
    # the stencil order is a field of the grid, Grid1D.order, its D2 stencil is
    # Grid1D.laplacian, and the Klein-Gordon mass is in the eigenvalues
    # pipeline.build_basis returns; nothing else holds any of them; and every
    # scan runs in the calling thread, so none takes a ``map`` to run it on
    assert [where for where, names in _functions() if name in names] == []


def test_no_dataclass_has_a_lap_field():
    # an operator on a grid reads grid.laplacian; a field would have to agree with it
    fields = [f"{path}:{node.lineno}" for path, node in _package_nodes()
              if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "lap"]
    assert fields == []


def test_no_function_takes_both_grid_and_damping():
    # a damping profile carries the grid it is sampled on, DampingProfile.grid,
    # so a function that takes a profile reads the grid from it
    assert [where for where, names in _functions() if {"grid", "damping"} <= names] == []


@pytest.mark.parametrize("state", ["state", "state0"])
def test_no_function_takes_a_state_beside_its_grid_or_eigenvalues(state):
    # a wave state carries its grid and the eigenvalues of its rows,
    # WaveState.grid and WaveState.lambdas, checked once as it is built
    assert [where for where, names in _functions()
            if state in names and names & {"grid", "lambdas"}] == []


def test_no_function_takes_both_grid_and_heat():
    # a heat solution carries the grid it is sampled on, HeatSolution.grid
    assert [where for where, names in _functions() if {"grid", "heat"} <= names] == []


def _lines_of(module: str, function: str) -> range:
    """The source lines of the top-level ``function`` of ``module``."""
    for path, node in _package_nodes():
        if str(path) == module and isinstance(node, ast.FunctionDef) and node.name == function:
            return range(node.lineno, node.end_lineno + 1)
    raise LookupError(f"{module} defines no {function}")


def test_only_the_start_vector_makes_a_generator():
    # a Lanczos start vector is drawn from default_rng(key), the key naming its run,
    # in resolvent._start_vector alone: no generator, saved generator state or
    # shared stream is kept or passed
    start = _lines_of("resolvent.py", "_start_vector")
    calls = [(str(path), node.lineno) for path, node in _package_nodes()
             if isinstance(node, ast.Call) and _called(node) == "default_rng"]
    assert len(calls) == 1 and calls[0][0] == "resolvent.py" and calls[0][1] in start
    package = Path(guidewave.__file__).parent
    assert [p.name for p in package.rglob("*.py") if "bit_generator" in p.read_text()] == []


def test_no_module_starts_a_thread():
    # every scan runs serially in the calling thread: the package builds no
    # executor or thread and reads no thread count from the environment
    calls = [f"{path}:{node.lineno}" for path, node in _package_nodes()
             if isinstance(node, ast.Call)
             and _called(node) in {"ThreadPoolExecutor", "ProcessPoolExecutor", "Thread"}]
    assert calls == []
    package = Path(guidewave.__file__).parent
    assert [p.name for p in package.rglob("*.py") if "GUIDEWAVE_THREADS" in p.read_text()] == []


def test_no_function_takes_a_generator():
    # power_iteration_norm is exempt: nothing calls it, and the benchmark's tracer
    # still looks it up by name
    exempt = _lines_of("resolvent.py", "power_iteration_norm")
    found = []
    for path, node in _package_nodes():
        if isinstance(node, (ast.Attribute, ast.Name)) and "Generator" in (
                getattr(node, "attr", None), getattr(node, "id", None)):
            if not (str(path) == "resolvent.py" and node.lineno in exempt):
                found.append(f"{path}:{node.lineno}")
    assert found == []


def test_package_imports_no_scipy_fft():
    # the heat convolutions run on numpy.fft, and no scan path calls a transform
    imports = []
    for path, node in _package_nodes():
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        if any(n == "scipy.fft" or n.startswith("scipy.fft.") for n in names):
            imports.append(f"{path}:{node.lineno}")
    assert imports == []


#: run in a fresh interpreter: import the entry points, run a tiny evolution and heat
#: comparison, then a one-point highfreq scan, printing the scipy modules loaded after each
_IMPORT_BOUNDARY = """
import sys, tempfile
sys.path.insert(0, sys.argv[1])
import guidewave.pipeline as p, guidewave.cli
from guidewave.config import from_dict

def loaded():
    print(sorted(m for m in ("scipy.fft", "scipy.special", "scipy.sparse.linalg")
                 if m in sys.modules))

tiny = {"grid": {"X": 20.0, "N": 64}, "domain": {"K": 2},
        "init": {"params": {"sigma": 2.0}, "smoothing_k": 1},
        "time": {"t_end": 4.0, "dt": 0.1, "t0": 1.0, "sample_ratio": 1.5},
        "fit_window": [1.0, 4.0], "local_radius": 5.0}
loaded()
with tempfile.TemporaryDirectory() as out:
    p.cmd_evolve(from_dict(tiny), out)
    p.cmd_heat_compare(from_dict(tiny), out)
    loaded()
    p.cmd_resolvent(from_dict(dict(tiny, scan={"kind": "highfreq", "z_list": [2.0]})), out)
    loaded()
"""


def test_entry_points_load_neither_scipy_fft_nor_scipy_special():
    # the evolution commands load no sparse LU; a scan factors with SuperLU and does
    src = str(Path(guidewave.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _IMPORT_BOUNDARY, src], capture_output=True,
                         text=True, check=True)
    assert out.stdout.split("\n")[:3] == ["[]", "[]", "['scipy.sparse.linalg']"]
