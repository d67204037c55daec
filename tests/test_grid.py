"""Grid substrate: sampling, multi-indices, finite differences, quadrature."""

import math
import tracemalloc

import numpy as np
import pytest

from dptool import grid as g
from dptool import maximal as mx
from dptool import meanpoly as mp
from dptool import potentials as pt
from dptool.dpgrid_io import read_csv, read_dpgrid, write_dpgrid
from dptool.reporting import Check
from dptool.weights import Weight


def write_csv(path, u):
    """Write u (n <= 2) in the CSV form ``read_csv`` reads: one row per cell."""
    cols = [f"x{i+1}" for i in range(u.n)] + [f"c{j}" for j in range(u.components)]
    rows = np.concatenate([u.cell_centers().reshape(-1, u.n), u.values.reshape(-1, u.components)], axis=1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")


class TestCreateGrid:
    def test_zero_sampler(self):
        gf = g.create_grid(g.box([0.0, 0.0], [1.0, 1.0]), 8, lambda p: np.zeros(len(p)))
        assert np.all(gf.values == 0.0)

    def test_cell_centers_1d(self):
        gf = g.create_grid(g.box([0.0], [1.0]), 4, lambda p: p[:, 0])
        assert np.allclose(gf.flat(), [0.125, 0.375, 0.625, 0.875], atol=1e-15)

    def test_singular_sampler_rejected(self):
        # odd resolution puts a cell center exactly on the singularity
        with pytest.raises(g.GridError, match="non-finite"), np.errstate(divide="ignore"):
            g.create_grid(g.box([-1.0], [1.0]), 5, lambda p: 1.0 / p[:, 0])

    def test_too_coarse_rejected(self):
        with pytest.raises(g.GridError):
            g.create_grid(g.box([0.0], [1.0]), 1, lambda p: p[:, 0])

    @pytest.mark.parametrize("lo,hi,res", [([0.0], [1.0], 7), ([-1.0, 0.3], [1.0, 2.3], (9, 9)),
                                           ([-0.5, -1.5, 2.0], [0.5, -0.5, 3.0], (5, 5, 5))])
    def test_points_match_meshgrid(self, lo, hi, res):
        # the sampler's points are the meshgrid of the same axis vectors, bit for bit
        seen = []
        gf = g.create_grid(g.box(lo, hi), res, lambda p: seen.append(p.copy()) or p[:, 0])
        axes = [gf.axis_centers(i) for i in range(gf.n)]
        want = np.stack([m.reshape(-1) for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
        assert seen[0].shape == want.shape and seen[0].tobytes() == want.tobytes()
        assert gf.cell_centers().reshape(-1, gf.n).tobytes() == want.tobytes()

    def test_points_are_built_once(self):
        # the (N, n) points and the values, with no meshgrid copies beside them
        tracemalloc.start()
        try:
            gf = g.create_grid(g.box([0.0] * 3, [1.0] * 3), 40, lambda p: np.zeros(len(p)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        points = gf.values.size * 3 * 8
        assert peak < 1.25 * (points + gf.values.nbytes)


class TestMultiIndex:
    def test_factorial(self):
        assert g.mi_factorial((2, 1)) == 2
        assert g.mi_factorial((3, 2, 1)) == 12

    def test_power(self):
        assert g.mi_power(np.array([[2.0, 3.0]]), (1, 2))[0] == 18.0

    def test_difference(self):
        assert g.mi_sub((1, 1), (0, 1)) == (1, 0)
        with pytest.raises(g.GridError):
            g.mi_sub((0, 1), (1, 0))

    def test_enumeration_sorted_and_complete(self):
        s2 = g.multi_indices(2, 2)
        assert s2 == [(0, 2), (1, 1), (2, 0)]
        assert len(g.multi_indices(3, 2)) == 6


class TestDerivatives:
    def test_linear_exact(self):
        u = g.create_grid(g.box([0.0], [1.0]), 64, lambda p: p[:, 0])
        d = g.partial_derivative(u, (1,))
        assert np.abs(d.scalar() - 1.0).max() < 1e-12

    def test_constant_derivative_zero(self):
        u = g.create_grid(g.box([0.0, 0.0], [1.0, 1.0]), 16, lambda p: np.full(len(p), 3.0))
        d = g.partial_derivative(u, (1, 0))
        assert np.abs(d.scalar()).max() < 1e-13

    def test_second_derivative_convergence_rate(self):
        # error against the closed-form second derivative shrinks ~4x per halving
        errs = []
        for size in (64, 128):
            u = g.create_grid(g.box([0.0], [1.0]), size, lambda p: np.sin(3 * p[:, 0]))
            d2 = g.partial_derivative(u, (2,))
            exact = -9 * np.sin(3 * u.axis_centers(0))
            errs.append(np.abs(d2.scalar() - exact).max())
        assert 2.5 < errs[0] / errs[1] < 6.0

    def test_second_derivative_exact_on_quadratic(self):
        u = g.create_grid(g.box([0.0], [1.0]), 32, lambda p: p[:, 0] ** 2)
        d2 = g.partial_derivative(u, (2,))
        assert np.abs(d2.scalar() - 2.0).max() < 1e-9

    def test_commutation(self):
        u = g.create_grid(g.box([0.0, 0.0], [1.0, 1.0]), 64,
                          lambda p: np.sin(2 * p[:, 0]) * np.cos(p[:, 1]))
        a = g.partial_derivative(g.partial_derivative(u, (1, 0)), (0, 1))
        b = g.partial_derivative(u, (1, 1))
        scale = np.abs(b.scalar()).max()
        assert np.abs(a.scalar() - b.scalar()).max() / scale < 1e-9

    def test_stencil_error(self):
        u = g.create_grid(g.box([0.0], [1.0]), 2, lambda p: p[:, 0])
        with pytest.raises(g.StencilError):
            g.partial_derivative(u, (1,))


class TestDerivativeNorm:
    def test_gradient_of_x(self):
        u = g.create_grid(g.box([0.0, 0.0], [1.0, 1.0]), 16, lambda p: p[:, 0])
        assert np.abs(g.derivative_norm(u, 1).scalar() - 1.0).max() < 1e-12

    def test_zero(self):
        u = g.create_grid(g.box([0.0, 0.0], [1.0, 1.0]), 16, lambda p: np.zeros(len(p)))
        assert np.all(g.derivative_norm(u, 1).scalar() == 0.0)

    def test_plane_sqrt5(self):
        u = g.create_grid(g.box([0.0, 0.0], [1.0, 1.0]), 16, lambda p: p[:, 0] + 2 * p[:, 1])
        assert np.abs(g.derivative_norm(u, 1).scalar() - math.sqrt(5)).max() < 1e-10

    def test_square_equals_sum_of_squares(self):
        u = g.create_grid(g.box([0.0, 0.0], [1.0, 1.0]), 24,
                          lambda p: np.sin(p[:, 0]) + p[:, 1] ** 2)
        dn2 = g.derivative_norm(u, 1).scalar() ** 2
        parts = sum(g.partial_derivative(u, s).scalar() ** 2 for s in g.multi_indices(2, 1))
        assert np.abs(dn2 - parts).max() < 1e-12

    def test_order_zero_of_a_scalar_is_abs(self):
        # below 1e-160, x^2 underflows, so sqrt(x^2) would not be |x|
        samples = np.array([1e-170, -3e-200, 5e-324, -1.0, 2.5, 0.0, -1e-160, 7e-155])
        u = g.create_grid(g.box([0.0], [1.0]), len(samples), lambda p: samples)
        assert not np.array_equal(np.sqrt(samples**2), np.abs(samples))
        assert g.derivative_norm(u, 0).values.tobytes() == np.abs(u.values).tobytes()

    def test_order_zero_of_two_components_is_euclidean(self):
        u = g.create_grid(g.box([-1.0, -1.0], [1.0, 1.0]), 8, lambda p: np.stack([p[:, 0] - 0.3, 2 * p[:, 1]], axis=1))
        x, y = u.values[..., 0], u.values[..., 1]
        assert g.derivative_norm(u, 0).scalar().tobytes() == np.sqrt(x**2 + y**2).tobytes()


class TestQuadrature:
    def test_disc_area(self):
        u = g.create_grid(g.box([-1.0, -1.0], [1.0, 1.0]), 128, lambda p: np.ones(len(p)))
        area = g.integrate(u, g.ball([0.0, 0.0], 1.0))[0]
        assert abs(area - math.pi) / math.pi < 0.02
        u2 = g.create_grid(g.box([-1.0, -1.0], [1.0, 1.0]), 256, lambda p: np.ones(len(p)))
        area2 = g.integrate(u2, g.ball([0.0, 0.0], 1.0))[0]
        assert abs(area2 - math.pi) < abs(area - math.pi)

    def test_zero(self):
        u = g.create_grid(g.box([0.0], [1.0]), 16, lambda p: np.zeros(len(p)))
        whole = g.ball([0.5], 0.5)  # holds every cell of the lattice
        assert whole.mask_for(u).all()
        assert g.integrate(u, whole)[0] == 0.0

    def test_3d_ball_volume(self):
        u = g.create_grid(g.box([-1.0] * 3, [1.0] * 3), 48, lambda p: np.ones(len(p)))
        vol = g.integrate(u, g.ball([0.0] * 3, 1.0))[0]
        assert abs(vol - 4 * math.pi / 3) / (4 * math.pi / 3) < 0.02

    def test_linearity(self):
        u = g.create_grid(g.box([0.0], [1.0]), 64, lambda p: np.sin(p[:, 0]))
        v = g.create_grid(g.box([0.0], [1.0]), 64, lambda p: p[:, 0] ** 2)
        b = g.ball([0.5], 0.5)
        assert b.mask_for(u).all()
        lhs = g.integrate(u.with_values(2.5 * u.values + 0.5 * v.values), b)[0]
        rhs = 2.5 * g.integrate(u, b)[0] + 0.5 * g.integrate(v, b)[0]
        assert abs(lhs - rhs) < 1e-12

    def test_monotone_and_additive_on_masks(self):
        u = g.create_grid(g.box([0.0], [1.0]), 64, lambda p: p[:, 0])
        v = g.create_grid(g.box([0.0], [1.0]), 64, lambda p: p[:, 0] + 0.5)
        b, left, right = g.ball([0.5], 0.5), g.ball([0.25], 0.25), g.ball([0.75], 0.25)
        assert b.mask_for(u).all()
        # the two half-intervals split the lattice's cells between them
        assert left.mask_for(u).tolist() == [True] * 32 + [False] * 32
        assert right.mask_for(u).tolist() == [False] * 32 + [True] * 32
        assert g.integrate(u, b)[0] <= g.integrate(v, b)[0]
        total = g.integrate(u, left)[0] + g.integrate(u, right)[0]
        assert total == g.integrate(u, b)[0]

    def test_empty_region_error(self):
        u = g.create_grid(g.box([0.0], [1.0]), 16, lambda p: p[:, 0])
        with pytest.raises(g.GridError, match="empty"):
            g.integrate(u, g.ball([5.0], 0.01))

    def test_cell_on_the_sphere_is_outside(self):
        # A radius whose Python square r**2 (libm pow) lands above numpy's
        # correctly rounded r * r, the square of every distance: squaring
        # the radius with pow would put a cell center at distance exactly r
        # inside the open ball.  Where the libm rounds pow correctly, the
        # search finds no such radius and an ordinary radius is checked.
        radii = np.random.default_rng(77).uniform(0.75, 3.0, 200_000).tolist()
        r = next((x for x in radii if x**2 > np.float64(x) * x), radii[0])
        u = g.create_grid(g.box([0.0], [2.0]), 2, lambda p: p[:, 0])  # cell centers 0.5 and 1.5
        c = 1.5 - r  # exact: r lies within a factor 2 of 1.5
        assert u.axis_centers(0)[1] - c == r
        assert not g.ball([c], r).mask_for(u)[1]


class TestWeightedAverage:
    def test_unit_weight_is_plain_mean(self):
        u = g.create_grid(g.box([0.0], [1.0]), 64, lambda p: np.cos(p[:, 0]))
        eta = u.with_values(np.ones(u.dims)[..., None])
        whole = g.ball([0.5], 0.5)
        assert whole.mask_for(u).all()
        assert g.weighted_average(u, None, eta)[0] == g.mean_over(u, whole)[0]

    def test_constant_field(self):
        u = g.create_grid(g.box([0.0], [1.0]), 64, lambda p: np.full(len(p), 2.5))
        eta = u.with_values((1 + u.axis_centers(0))[..., None])
        assert abs(g.weighted_average(u, None, eta)[0] - 2.5) < 1e-13

    def test_half_interval_indicator(self):
        u = g.create_grid(g.box([-1.0], [1.0]), 256, lambda p: p[:, 0])
        eta = u.with_values((u.axis_centers(0) > 0).astype(float)[..., None])
        # integral of x over (0,1) divided by length 1
        assert abs(g.weighted_average(u, None, eta)[0] - 0.5) < 2.0 / 256

    def test_degenerate_weight(self):
        u = g.create_grid(g.box([0.0], [1.0]), 16, lambda p: p[:, 0])
        eta = u.with_values(np.zeros(u.dims)[..., None])
        with pytest.raises(g.GridError, match="degenerate"):
            g.weighted_average(u, None, eta)


def poincare_ratio(sides):
    lhs, rhs_weighted, rhs_scaling = sides
    return g._ratio(lhs, rhs_weighted + rhs_scaling)


class TestLemmaPremises:
    """Each pointwise lemma checks its own eta-mass floor and vanishing
    tolerance through ``grid._require_premises``; past them, its measured
    constant is finite."""

    B = g.ball([0.0, 0.0], 0.9)
    LEMMAS = {
        "hedberg": lambda u, B, eta: mx.hedberg_report(u, 1, B, eta, 0.9),
        "riesz": lambda u, B, eta: pt.pointwise_riesz_bound_check(u, B, eta),
        "kernel": lambda u, B, eta: mp.kernel_bound_report(u, B, eta, 1, 0.9),
        "poincare": lambda u, B, eta: poincare_ratio(pt.sobolev_poincare_report(
            u, Weight(a=eta.with_values(np.ones_like(eta.values)), alpha=0.5), 2.0, 2.2, B, eta, 1, 2.2, 0.9)),
    }

    def holds(self, lemma, u, eta):
        return Check.from_bound(lemma, self.LEMMAS[lemma](u, self.B, eta), math.inf).status == "pass"

    @staticmethod
    def odd(shift=0.0):
        # x is odd on a symmetric lattice, so its average over the centred
        # ball vanishes to rounding; the shift is its only average
        return g.create_grid(g.box([-1.0, -1.0], [1.0, 1.0]), 32, lambda p: p[:, 0] + shift)

    @pytest.mark.parametrize("lemma,floor", [("hedberg", 0.25), ("riesz", 0.25), ("kernel", 0.5), ("poincare", None)])
    def test_mass_floor(self, lemma, floor):
        u = self.odd()
        for level in (0.2, 0.3, 0.6):
            eta = u.with_values(np.full(u.dims + (1,), level))
            if floor is not None and level < floor:
                with pytest.raises(g.GridError, match="cutoff mass below"):
                    self.LEMMAS[lemma](u, self.B, eta)
            else:
                assert self.holds(lemma, u, eta), level

    @pytest.mark.parametrize("lemma,tol", [("hedberg", 1e-8), ("riesz", 1e-8), ("kernel", None), ("poincare", 1e-6)])
    def test_vanishing_tolerance(self, lemma, tol):
        for shift in (4e-7, 4e-6):
            u = self.odd(shift)
            eta = u.with_values(np.ones(u.dims + (1,)))
            if tol is not None and shift / (1.0 + float(np.abs(u.values).max())) > tol:
                with pytest.raises(g.GridError, match="vanish"):
                    self.LEMMAS[lemma](u, self.B, eta)
            else:
                assert self.holds(lemma, u, eta), shift


class TestIO:
    def test_dpgrid_roundtrip(self, tmp_path):
        u = g.create_grid(g.box([-1.0, 0.0], [1.0, 4.0]), (16, 32),
                          lambda p: np.stack([p[:, 0], p[:, 1] ** 2], axis=1))
        path = tmp_path / "u.dpgrid"
        write_dpgrid(path, u)
        v = read_dpgrid(path)
        assert v.dims == u.dims and v.components == 2
        assert np.array_equal(v.values, u.values)
        assert v.spacing == u.spacing and np.array_equal(v.origin, u.origin)

    def test_dpgrid_header_is_json_line(self, tmp_path):
        import json
        u = g.create_grid(g.box([0.0], [1.0]), 8, lambda p: p[:, 0])
        path = tmp_path / "u.dpgrid"
        write_dpgrid(path, u)
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
        assert header["magic"] == "DPGRID" and header["version"] == 1
        assert header["dims"] == [8] and header["components"] == 1

    def test_csv_roundtrip(self, tmp_path):
        u = g.create_grid(g.box([0.0, 0.0], [1.0, 1.0]), 8, lambda p: p[:, 0] * p[:, 1])
        path = tmp_path / "u.csv"
        write_csv(path, u)
        v = read_csv(path)
        assert v.dims == u.dims
        assert np.abs(v.values - u.values).max() < 1e-12

    def test_csv_x_columns_come_first(self, tmp_path):
        # read by position, c0,x1 would take the values column as coordinates
        path = tmp_path / "u.csv"
        path.write_text("c0,x1\n1,0.5\n2,1.5\n")
        with pytest.raises(g.GridError, match=r"u\.csv: .* x columns first"):
            read_csv(path)

    @pytest.mark.parametrize("rows", ["0,1,9\n1,2,9\n", "0\n1\n"], ids=["wider", "narrower"])
    def test_csv_row_width_matches_header(self, tmp_path, rows):
        path = tmp_path / "u.csv"
        path.write_text("x0,c0\n" + rows)
        with pytest.raises(g.GridError, match=r"u\.csv: CSV rows have \d columns, its header 2"):
            read_csv(path)

    def test_truncated_file_rejected(self, tmp_path):
        u = g.create_grid(g.box([0.0], [1.0]), 8, lambda p: p[:, 0])
        path = tmp_path / "u.dpgrid"
        write_dpgrid(path, u)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(g.GridError, match="truncated"):
            read_dpgrid(path)
