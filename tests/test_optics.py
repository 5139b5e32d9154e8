"""Closed-form screen amplitudes against the brute-force diffraction quadrature."""

import dataclasses

import numpy as np
import pytest

from slitlab import optics
from slitlab.optics import (
    Hole,
    QuadratureConvergenceError,
    RealDensity,
    SlitGeometry,
    TransverseAmplitude,
    default_geometry,
    fresnel_oracle,
    relative_l2_error,
    single_hole_amplitude,
    superpose,
    visibility,
)
from slitlab.shelving import IonState, PhotonRecord, TelegraphTrajectory
from slitlab.stats import Histogram, PositionSample

GEOM = default_geometry()


def make_geometry(**overrides):
    params = dict(
        hole_separation=5e-6,
        hole_width_a=0.5e-6,
        hole_width_b=0.5e-6,
        wall_to_backstop=1.0,
        de_broglie_wavelength=50e-9,
        grid_min=-0.2,
        grid_max=0.2,
        grid_points=8192,
    )
    params.update(overrides)
    return SlitGeometry(**params)


class TestGeometryGuards:
    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            make_geometry(hole_width_a=0.0)

    def test_negative_separation_rejected(self):
        with pytest.raises(ValueError):
            make_geometry(hole_separation=-1e-6)

    def test_overlapping_holes_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            make_geometry(hole_separation=0.4e-6)

    def test_far_field_flag_enforced(self):
        # 1 mm holes at 1 m: w^2/(lambda L) = 20, far outside the regime.
        with pytest.raises(ValueError, match="far-field"):
            make_geometry(hole_width_a=1e-3, hole_width_b=1e-3, hole_separation=5e-3)

    def test_grid_must_cover_three_fringes(self):
        with pytest.raises(ValueError, match="fringe"):
            make_geometry(grid_min=-0.02, grid_max=0.02)

    def test_degenerate_grid_rejected(self):
        with pytest.raises(ValueError):
            make_geometry(grid_points=1)
        with pytest.raises(ValueError):
            make_geometry(grid_min=0.2, grid_max=-0.2)

    @pytest.mark.parametrize("name", [
        "hole_separation", "hole_width_a", "hole_width_b", "wall_to_backstop",
        "de_broglie_wavelength", "grid_min", "grid_max",
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_lengths_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            make_geometry(**{name: value})


class TestSingleHoleAmplitude:
    def test_equal_widths_split_the_weight(self):
        psi_a = single_hole_amplitude(GEOM, Hole.A)
        psi_b = single_hole_amplitude(GEOM, Hole.B)
        assert psi_a.weight == pytest.approx(0.5, abs=1e-12)
        assert psi_b.weight == pytest.approx(0.5, abs=1e-12)
        assert abs(psi_a.weight + psi_b.weight - 1.0) <= 1e-9

    def test_unequal_widths_split_by_aperture_area(self):
        geom = make_geometry(hole_width_a=1.0e-6, hole_width_b=0.5e-6)
        psi_a = single_hole_amplitude(geom, Hole.A)
        psi_b = single_hole_amplitude(geom, Hole.B)
        # Independent route to the split: integrate |uniform illumination|^2
        # over each aperture numerically; propagation is unitary, so these
        # norms are the branch weights up to the common normalization.
        illumination = 1.0 / np.sqrt(geom.hole_width_a + geom.hole_width_b)
        norms = {}
        for hole in Hole:
            center, width = geom.hole_center(hole), geom.hole_width(hole)
            xs = np.linspace(center - width / 2, center + width / 2, 10_001)
            norms[hole] = np.trapezoid(np.full(xs.size, illumination**2), xs)
        total = norms[Hole.A] + norms[Hole.B]
        assert psi_a.weight == pytest.approx(norms[Hole.A] / total, abs=1e-9)
        assert psi_b.weight == pytest.approx(norms[Hole.B] / total, abs=1e-9)
        assert psi_a.weight == pytest.approx(2 / 3, abs=1e-12)
        assert psi_b.weight == pytest.approx(1 / 3, abs=1e-12)

    def test_weight_matches_grid_integral(self):
        psi = single_hole_amplitude(GEOM, Hole.A)
        integral = np.trapezoid(np.abs(psi.values) ** 2, GEOM.grid)
        assert integral == pytest.approx(psi.weight, rel=1e-12)

    def test_envelope_first_zero_at_lamL_over_w(self):
        # Locate the zero of a brute-force 1e4-point aperture quadrature
        # (ramp removed) by sign change; the closed form puts it at
        # lambda*L/w = 0.1 m.
        geom = make_geometry(grid_min=0.05, grid_max=0.15, grid_points=4096)
        x = geom.grid
        lam_l = geom.wavelength_distance
        center, width = geom.hole_center(Hole.A), geom.hole_width(Hole.A)
        xs = np.linspace(center - width / 2, center + width / 2, 10_000)
        raw = np.empty(x.size, dtype=complex)
        for start in range(0, x.size, 256):
            block = x[start : start + 256]
            integrand = np.exp(
                (2j * np.pi / lam_l) * np.outer(block, xs) - (1j * np.pi / lam_l) * xs**2
            )
            raw[start : start + 256] = np.trapezoid(integrand, xs, axis=1)
        deramped = np.real(raw * np.exp(-2j * np.pi * center * x / lam_l))
        signs = np.sign(deramped)
        crossings = x[:-1][signs[:-1] * signs[1:] < 0]
        expected = lam_l / width
        assert crossings.size >= 1
        assert np.min(np.abs(crossings - expected)) < 1e-4


class TestSuperpose:
    def test_additive_identity(self):
        psi = single_hole_amplitude(GEOM, Hole.A)
        zero = TransverseAmplitude(GEOM, np.zeros(GEOM.grid_points, dtype=complex), 0.0)
        total = superpose(psi, zero)
        np.testing.assert_array_equal(total.values, psi.values)
        assert total.weight == pytest.approx(psi.weight, rel=1e-12)

    def test_grid_mismatch_rejected(self):
        other = make_geometry(grid_points=4096)
        with pytest.raises(ValueError, match="mismatch"):
            superpose(single_hole_amplitude(GEOM, Hole.A), single_hole_amplitude(other, Hole.B))

    def test_central_peak_is_four_times_one_branch(self):
        # Odd point count puts x = 0 on the grid.
        geom = make_geometry(grid_points=4097)
        psi_a = single_hole_amplitude(geom, Hole.A)
        psi_b = single_hole_amplitude(geom, Hole.B)
        both = superpose(psi_a, psi_b)
        mid = geom.grid_points // 2
        assert abs(geom.grid[mid]) < 1e-12
        ratio = np.abs(both.values[mid]) ** 2 / np.abs(psi_a.values[mid]) ** 2
        assert ratio == pytest.approx(4.0, abs=1e-9)

    def test_fringe_period_matches_quadrature_peaks(self):
        # Peak spacing of the quadrature double-hole density equals lambda*L/s.
        both = fresnel_oracle(GEOM)
        dens = np.abs(both.values) ** 2
        x = GEOM.grid
        # >= on the left admits the symmetric two-sample plateau at x = 0.
        interior = (dens[1:-1] >= dens[:-2]) & (dens[1:-1] > dens[2:])
        peaks = x[1:-1][interior]
        peaks = peaks[np.abs(peaks) < 5 * GEOM.fringe_period]
        spacing = np.diff(np.sort(peaks))
        assert np.allclose(spacing, GEOM.fringe_period, rtol=2e-2)

    def test_commutative_and_associative(self):
        psi_a = single_hole_amplitude(GEOM, Hole.A)
        psi_b = single_hole_amplitude(GEOM, Hole.B)
        ab = superpose(psi_a, psi_b)
        ba = superpose(psi_b, psi_a)
        np.testing.assert_allclose(ab.values, ba.values, atol=1e-12)
        # Scale down so the three-term sums stay inside the weight ceiling.
        third = TransverseAmplitude(GEOM, 0.3 * psi_a.values, 0.09 * psi_a.weight)
        small_a = TransverseAmplitude(GEOM, 0.3 * psi_a.values, 0.09 * psi_a.weight)
        small_b = TransverseAmplitude(GEOM, 0.3 * psi_b.values, 0.09 * psi_b.weight)
        left = superpose(superpose(small_a, small_b), third)
        right = superpose(small_a, superpose(small_b, third))
        np.testing.assert_allclose(left.values, right.values, atol=1e-12)

    def test_weight_is_recomputed_not_summed(self):
        psi_a = single_hole_amplitude(GEOM, Hole.A)
        psi_b = single_hole_amplitude(GEOM, Hole.B)
        both = superpose(psi_a, psi_b)
        cross = np.trapezoid(2 * np.real(psi_a.values * np.conj(psi_b.values)), GEOM.grid)
        assert both.weight == pytest.approx(psi_a.weight + psi_b.weight + cross, abs=1e-12)
        # The two holes sit many widths apart, so the cross term is tiny.
        assert abs(cross) < 1e-3 * both.weight


class TestFresnelOracle:
    def test_single_hole_matches_closed_form(self):
        for hole in Hole:
            closed = single_hole_amplitude(GEOM, hole)
            oracle = fresnel_oracle(GEOM, (hole,))
            assert relative_l2_error(closed, oracle) < 1e-3

    def test_both_holes_match_superposition(self):
        closed = superpose(
            single_hole_amplitude(GEOM, Hole.A), single_hole_amplitude(GEOM, Hole.B)
        )
        assert relative_l2_error(closed, fresnel_oracle(GEOM)) < 1e-3

    def test_randomized_far_field_geometries(self):
        rng = np.random.default_rng(1234)
        for _ in range(3):
            geom = random_far_field_geometry(rng)
            closed = superpose(
                single_hole_amplitude(geom, Hole.A), single_hole_amplitude(geom, Hole.B)
            )
            assert relative_l2_error(closed, fresnel_oracle(geom)) < 1e-3

    def test_no_open_holes_rejected(self):
        with pytest.raises(ValueError):
            fresnel_oracle(GEOM, ())

    def test_repeated_calls_agree(self):
        first = fresnel_oracle(GEOM, (Hole.A,))
        second = fresnel_oracle(GEOM, (Hole.A,))
        np.testing.assert_array_equal(first.values, second.values)
        assert first.weight == second.weight
        both = fresnel_oracle(GEOM)
        np.testing.assert_array_equal(fresnel_oracle(GEOM).values, both.values)

    def test_cached_hole_field_is_read_only(self):
        field = optics._hole_field(GEOM, Hole.A)
        assert not field.flags.writeable
        with pytest.raises(ValueError):
            field[0] = 0.0

    def test_unconverged_quadrature_raises_every_time(self, monkeypatch):
        # Four nodes cannot resolve the kernel's phase across the aperture.
        optics._hole_field.cache_clear()
        monkeypatch.setattr(optics, "ORACLE_NODES_PER_HOLE", 4)
        try:
            for _ in range(2):
                with pytest.raises(QuadratureConvergenceError, match="hole A.*doubling 4 nodes"):
                    fresnel_oracle(GEOM)
        finally:
            optics._hole_field.cache_clear()

    def test_nan_field_raises_and_is_not_cached(self, monkeypatch):
        # A NaN relative change must fail the node-doubling check, not pass it.
        optics._hole_field.cache_clear()
        calls = []
        def nan_field(geom, hole, nodes):
            calls.append(nodes)
            return np.full(geom.grid_points, np.nan + 0j)

        monkeypatch.setattr(optics, "_fresnel_field", nan_field)
        try:
            with pytest.raises(QuadratureConvergenceError, match="hole A.*relative change nan"):
                fresnel_oracle(GEOM, (Hole.A,))
            assert optics._hole_field.cache_info().currsize == 0
            # It raises at the first check, not after doubling up to the cap.
            assert len(calls) == 2
        finally:
            optics._hole_field.cache_clear()


def adaptive_rule_geometries():
    """Criterion 6's 20 geometries, then the default one."""
    rng = np.random.default_rng(42)
    return [random_far_field_geometry(rng) for _ in range(20)] + [GEOM]


class TestAdaptiveRule:
    def test_matches_the_largest_fixed_rule(self):
        for geom in adaptive_rule_geometries():
            x = geom.grid
            for hole in Hole:
                # The 512-node field, rescaled to the weight as _hole_field rescales.
                fixed = optics._fresnel_field(geom, hole, 2 * optics.ORACLE_NODES_PER_HOLE)
                target = geom.hole_width(hole) / (geom.hole_width_a + geom.hole_width_b)
                fixed = fixed * np.sqrt(target / np.trapezoid(np.abs(fixed) ** 2, x))
                diff = optics._hole_field(geom, hole) - fixed
                err = np.sqrt(np.trapezoid(np.abs(diff) ** 2, x) / target)
                assert err <= 1e-12, (geom, hole, err)

    def test_stops_doubling_once_the_field_converges(self, monkeypatch):
        fresnel_field = optics._fresnel_field
        calls = []
        def recorded(geom, hole, nodes):
            calls.append(nodes)
            return fresnel_field(geom, hole, nodes)

        monkeypatch.setattr(optics, "_fresnel_field", recorded)
        optics._hole_field.cache_clear()
        try:
            for geom in adaptive_rule_geometries():
                for hole in Hole:
                    calls.clear()
                    optics._hole_field(geom, hole)
                    expected = [16, 32, 64] if geom is GEOM else [16, 32]
                    assert calls == expected, (geom, hole)
        finally:
            optics._hole_field.cache_clear()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 64, 256, 257, 512])
def test_clenshaw_curtis_rule(n):
    x, w = optics._clenshaw_curtis(n)
    assert x.shape == w.shape == (n,)
    assert np.all(np.diff(x) > 0)
    np.testing.assert_array_equal(x, -x[::-1])
    if n % 2:
        assert x[n // 2] == 0.0
    assert np.all(w > 0)
    np.testing.assert_array_equal(w, w[::-1])
    assert abs(w.sum() - 2.0) <= 1e-14
    # The rule integrates x^(2k) exactly for 2k <= n - 1.
    for k in range((n - 1) // 2 + 1):
        exact = 2.0 / (2 * k + 1)
        assert abs(np.sum(w * x ** (2 * k)) - exact) <= 1e-13 * exact, k


@pytest.mark.parametrize("n", [0, 1])
def test_clenshaw_curtis_rule_needs_two_nodes(n):
    with pytest.raises(ValueError, match="at least 2 nodes"):
        optics._clenshaw_curtis(n)


def reference_fresnel_field(geom, hole, nodes, screen_block=1024):
    """The direct kernel that the separable one replaced, kept as its reference.

    One complex exponential per (screen point, node), in blocks of
    ``screen_block`` screen points.
    """
    x = geom.grid
    lam_l = geom.wavelength_distance
    width = geom.hole_width(hole)
    u, w_quad = np.polynomial.legendre.leggauss(nodes)
    xs = geom.hole_center(hole) + u * (width / 2)
    w_quad = w_quad * (width / 2)
    aperture_phase = np.exp(-1j * np.pi * xs**2 / lam_l)
    amplitude = 1.0 / np.sqrt(geom.hole_width_a + geom.hole_width_b)
    weighted = amplitude * aperture_phase * w_quad / np.sqrt(lam_l)
    field = np.empty(x.size, dtype=complex)
    for start in range(0, x.size, screen_block):
        kernel = np.exp((2j * np.pi / lam_l) * np.outer(x[start : start + screen_block], xs))
        field[start : start + screen_block] = kernel @ weighted
    return field


# Five geometries per grid, 25 in all.  2049 and 4099 are not perfect
# squares, so the last kernel block is padded; 5 points make blocks of two
# and 2 points blocks of one, so one-row step tables.
@pytest.mark.parametrize("grid_points", [2048, 2049, 4099, 5, 2])
def test_separable_kernel_matches_direct_kernel(grid_points):
    rng = np.random.default_rng(grid_points)
    for _ in range(5):
        geom = random_far_field_geometry(rng, grid_points)
        for hole in Hole:
            for nodes in (256, 512):
                expected = reference_fresnel_field(geom, hole, nodes)
                field = optics._fresnel_field(geom, hole, nodes)
                assert field.shape == expected.shape
                err = np.linalg.norm(field - expected) / np.linalg.norm(expected)
                assert err <= 1e-12, (geom, hole, nodes, err)


def random_far_field_geometry(rng, grid_points=2048):
    """Random geometry well inside the far-field regime of the closed forms."""
    lam = rng.uniform(20e-9, 100e-9)
    dist = rng.uniform(0.5, 2.0)
    lam_l = lam * dist
    w_a = rng.uniform(0.2e-6, 1.0e-6)
    w_b = rng.uniform(0.2e-6, 1.0e-6)
    s_lo = 3.0 * (w_a + w_b)
    s_hi = min(20.0 * (w_a + w_b), 5e-4 * lam_l / max(w_a, w_b))
    s = s_lo if s_hi <= s_lo else rng.uniform(s_lo, s_hi)
    span = 12.0 * lam_l / s
    return SlitGeometry(s, w_a, w_b, dist, lam, -span / 2, span / 2, grid_points)


class TestVisibility:
    def test_ideal_fringes_have_unit_visibility(self):
        # Grid chosen so the cos^2 zeros land exactly on grid points.
        geom = make_geometry(grid_points=8001)
        x = geom.grid
        values = np.cos(np.pi * x / geom.fringe_period) ** 2
        dens = RealDensity(geom, values)
        period = geom.fringe_period
        assert visibility(dens, (-period, period)) == pytest.approx(1.0, abs=1e-6)

    def test_constant_density_has_zero_visibility(self):
        geom = make_geometry(grid_min=0.0, grid_max=1.0)
        dens = RealDensity(geom, np.ones(geom.grid_points))
        assert visibility(dens, (0.2, 0.8)) == 0.0

    def test_incoherent_sum_visibility_is_envelope_bound(self):
        psi_a = single_hole_amplitude(GEOM, Hole.A)
        psi_b = single_hole_amplitude(GEOM, Hole.B)
        values = np.abs(psi_a.values) ** 2 + np.abs(psi_b.values) ** 2
        dens = RealDensity(GEOM, values)
        period = GEOM.fringe_period
        vis = visibility(dens, (-period, period))
        # No fringes here, only the sinc^2 envelope rolling off across the
        # window; the bound follows from the envelope values themselves.
        mask = np.abs(GEOM.grid) <= period
        env = values[mask]
        bound = (env.max() - env.min()) / (env.max() + env.min())
        assert vis == pytest.approx(bound, rel=1e-12)
        assert vis <= 0.05

    def test_window_too_narrow_rejected(self):
        psi = single_hole_amplitude(GEOM, Hole.A)
        dens = RealDensity(GEOM, np.abs(psi.values) ** 2)
        with pytest.raises(ValueError, match="narrow"):
            visibility(dens, (-0.5 * GEOM.fringe_period, 0.5 * GEOM.fringe_period))

    def test_window_outside_grid_rejected(self):
        psi = single_hole_amplitude(GEOM, Hole.A)
        dens = RealDensity(GEOM, np.abs(psi.values) ** 2)
        with pytest.raises(ValueError, match="beyond"):
            visibility(dens, (0.15, 0.25))


class TestSymmetry:
    def test_equal_holes_give_mirror_symmetric_density(self):
        psi_a = single_hole_amplitude(GEOM, Hole.A)
        psi_b = single_hole_amplitude(GEOM, Hole.B)
        p12 = np.abs(superpose(psi_a, psi_b).values) ** 2
        assert np.max(np.abs(p12 - p12[::-1])) < 1e-12
        p1 = np.abs(psi_a.values) ** 2
        p2 = np.abs(psi_b.values) ** 2
        assert np.max(np.abs(p1 - p2[::-1])) < 1e-12


class TestRealDensity:
    def test_negative_values_rejected(self):
        values = np.full(GEOM.grid_points, -1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            RealDensity(GEOM, values)

    def test_total_is_the_trapezoid_integral_bit_for_bit(self):
        psi = superpose(single_hole_amplitude(GEOM, Hole.A), single_hole_amplitude(GEOM, Hole.B))
        values = np.abs(psi.values) ** 2
        dens = RealDensity(GEOM, values)
        assert dens.total == float(np.trapezoid(values, GEOM.grid))
        sub = dens.restrict(-0.05, 0.05)
        assert sub.total == float(np.trapezoid(sub.values, sub.x))

    def test_restrict_renormalizes(self):
        psi = superpose(single_hole_amplitude(GEOM, Hole.A), single_hole_amplitude(GEOM, Hole.B))
        dens = RealDensity(GEOM, np.abs(psi.values) ** 2)
        sub = dens.restrict(-0.05, 0.05)
        assert sub.total == pytest.approx(1.0, rel=1e-12)
        assert sub.x[0] >= -0.05 - 1e-9 and sub.x[-1] <= 0.05 + 1e-9


# Per record: the caller's arrays, the record built from them, and the
# fields that hold them, in the same order.  Each array already has the
# dtype its record stores, so none needs a copy.
RECORDS = {
    "TransverseAmplitude": (lambda: [np.zeros(GEOM.grid_points, dtype=complex)],
                            lambda values: TransverseAmplitude(GEOM, values, 0.0), ["values"]),
    "RealDensity": (lambda: [np.ones(5), np.linspace(0.0, 0.1, 5)],
                    lambda values, x: RealDensity(GEOM, values, x=x), ["values", "x"]),
    "PositionSample": (lambda: [np.zeros(3)],
                       lambda positions: PositionSample(positions, GEOM), ["positions"]),
    "Histogram": (lambda: [np.array([0.0, 1.0, 2.0]), np.array([1, 2], dtype=np.int64)],
                  lambda edges, counts: Histogram(edges, counts, 3), ["bin_edges", "counts"]),
    "TelegraphTrajectory": (lambda: [np.array([1.0, 2.0])],
                            lambda lengths: TelegraphTrajectory(IonState.BRIGHT, lengths, 3.0),
                            ["intervals"]),
    "PhotonRecord": (lambda: [np.array([0.5, 1.5])],
                     lambda times: PhotonRecord(times, 2.0), ["arrival_times"]),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_hold_read_only_views_of_the_callers_arrays(name):
    make_arrays, build, fields = RECORDS[name]
    arrays = make_arrays()
    record = build(*arrays)
    for array, field_name in zip(arrays, fields):
        held = getattr(record, field_name)
        assert array.flags.writeable
        assert not held.flags.writeable
        assert np.shares_memory(held, array)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, fields[0], arrays[0])
