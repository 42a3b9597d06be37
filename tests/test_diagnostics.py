import math

import numpy as np
import pytest
from numpy.random import default_rng

from adafisher.diagnostics import (DiscSet, fft2, fim_hist_stats, gershgorin, kaiser_count,
                                   perturb_offdiag, snr, write_csv)
from adafisher.errors import DimensionError, InputError


def random_symmetric(n, seed):
    a = default_rng(seed).standard_normal((n, n))
    return (a + a.T) / 2


def diag_dominant(n, seed, diag_lo=2.0, diag_hi=5.0, off_scale=0.05):
    rng = default_rng(seed)
    a = rng.standard_normal((n, n)) * off_scale
    a = (a + a.T) / 2
    np.fill_diagonal(a, rng.random((n,)) * (diag_hi - diag_lo) + diag_lo)
    return a


MATRIX_ANALYSES = {"gershgorin": gershgorin, "fft2": fft2,
                   "perturb_offdiag": lambda a: perturb_offdiag(a, sigma=0.1, seed=0),
                   "snr": lambda a: snr(a, a)}


@pytest.mark.parametrize("name", sorted(MATRIX_ANALYSES))
@pytest.mark.parametrize("shape", [(3,), (2, 2, 2), (2, 3), (0, 0), (0, 3)],
                         ids=["1-d", "3-d", "non-square", "empty", "empty-non-square"])
def test_matrix_shape_rejected(name, shape):
    # fft2 takes any non-empty 2-D matrix; the others a non-empty square one.
    if name == "fft2" and shape == (2, 3):
        assert fft2(np.ones(shape)).shape == shape
        return
    with pytest.raises(DimensionError):
        MATRIX_ANALYSES[name](np.ones(shape))


@pytest.mark.parametrize("name", sorted(MATRIX_ANALYSES))
def test_complex_matrix_rejected(name):
    # a float64 cast would keep only the real part
    with pytest.raises(InputError):
        MATRIX_ANALYSES[name](np.eye(2) + 1j * np.ones((2, 2)))


class TestGershgorin:
    def test_forced_arithmetic(self):
        discs = gershgorin(np.array([[4.0, 1.0], [2.0, -3.0]]))
        assert np.array_equal(discs.centers, [4.0, -3.0])
        assert np.array_equal(discs.radii, [1.0, 2.0])
        assert np.array_equal(discs.dominance, [4.0, 1.5])

    def test_zero_radius_dominance_is_infinite(self):
        discs = gershgorin(np.diag([2.0, 3.0]))
        assert np.all(np.isinf(discs.dominance))
        assert discs.contained

    def test_containment_on_random_symmetric(self):
        for seed in range(10):
            assert gershgorin(random_symmetric(8, seed)).contained

    @pytest.mark.parametrize("eig_tol", [1e-9, 0.0, -1e-3])
    def test_containment_is_the_per_eigenvalue_definition(self, eig_tol):
        # every eigenvalue within eig_tol of some disc; a negative eig_tol
        # shrinks the discs until a diagonal matrix's eigenvalues fall out
        mats = [random_symmetric(8, seed) for seed in range(5)]
        mats += [np.diag([2.0, 3.0]), np.array([[4.0, 1.0], [2.0, -3.0]])]
        verdicts = []
        for a in mats:
            d = gershgorin(a, eig_tol)
            want = all(np.any(np.abs(lam - d.centers) <= d.radii + eig_tol)
                       for lam in d.eigenvalues)
            assert type(d.contained) is bool and d.contained == want
            verdicts.append(want)
        assert all(verdicts) == (eig_tol >= 0)

    def test_eigenvalues_match_numpy(self):
        a = random_symmetric(10, 3)
        discs = gershgorin(a)
        assert np.max(np.abs(discs.eigenvalues - np.linalg.eigvalsh(a))) < 1e-9

    @pytest.mark.parametrize("case", ["symmetric", "kronecker-spd", "near-symmetric",
                                      "non-symmetric", "defective"])
    def test_solver_choice_keeps_eigenvalues_and_containment(self, case):
        # A symmetric matrix's eigenvalues come from eigvalsh, which forms no
        # eigenvectors: within rounding of eigh's, with the same containment
        # verdict at every eig_tol. A non-symmetric one still takes the sorted
        # real parts of eigvals, bit for bit.
        rng = default_rng(11)
        a = {"symmetric": lambda: random_symmetric(16, 4),
             "kronecker-spd": lambda: np.kron(*(g @ g.T / 8 + 0.5 * np.eye(8)
                                                for g in rng.standard_normal((2, 8, 8)))),
             "near-symmetric": lambda: random_symmetric(8, 5) + np.triu(np.full((8, 8), 1e-14)),
             "non-symmetric": lambda: rng.standard_normal((9, 9)),
             "defective": lambda: np.array([[1.0, 1.0], [0.0, 1.0]])}[case]()
        if np.allclose(a, a.T, atol=1e-12 * max(1.0, np.abs(a).max())):
            want = np.linalg.eigh(a)[0]
            assert np.max(np.abs(gershgorin(a).eigenvalues - want)) <= 1e-13 * np.abs(want).max()
        else:
            want = np.sort(np.linalg.eigvals(a).real)
            assert np.array_equal(gershgorin(a).eigenvalues, want)
        for eig_tol in (1e-9, 0.0, -1e-3):
            d = gershgorin(a, eig_tol)
            inside = np.abs(want[:, None] - d.centers) <= d.radii + eig_tol
            assert d.contained == bool(inside.any(axis=1).all())

    def test_csv_export(self, tmp_path):
        # numpy floats are written as Python floats: "1.0", never "np.float64(1.0)"
        path = tmp_path / "discs.csv"
        discs = gershgorin(np.eye(3))
        write_csv(path, ("layer", "row", "center", "radius"),
                  (("L0", i, c, r) for i, (c, r) in enumerate(zip(discs.centers, discs.radii))))
        lines = path.read_text().strip().splitlines()
        assert lines == ["layer,row,center,radius", "L0,0,1.0,0.0", "L0,1,1.0,0.0",
                         "L0,2,1.0,0.0"]

    @pytest.mark.parametrize("eig_tol", ["x", None, True, float("nan"), float("inf")])
    def test_eig_tol_must_be_a_finite_number(self, eig_tol):
        # a string was a bare UFuncTypeError, and NaN reported contained=False
        with pytest.raises(InputError, match="eig_tol must be a finite number"):
            gershgorin(np.eye(2), eig_tol)


class TestPerturbation:
    def test_zero_sigma_identical(self):
        a = diag_dominant(6, 0)
        res = perturb_offdiag(a, 0.0, seed=1)
        assert np.array_equal(res.eig_mags_before, res.eig_mags_after)
        assert res.kaiser_before == res.kaiser_after

    def test_kaiser_count_definition(self):
        assert kaiser_count(np.array([-2.0, 0.5, 1.0, 1.5])) == 2

    def test_eigenvalue_shift_bounded_by_noise_norm(self):
        # Weyl: |lambda_k(A+E) - lambda_k(A)| <= ||E||_2 <= ||E||_F
        a = diag_dominant(8, 5)
        sigma = 1e-3
        res = perturb_offdiag(a, sigma, seed=7)
        bound = sigma * 8 * 2  # generous Frobenius-type bound
        assert np.max(np.abs(res.eig_mags_after - res.eig_mags_before)) < bound

    def test_kaiser_stable_for_dominant_spectra(self):
        # eigenvalues well away from 1: tiny noise cannot change the count
        for seed in range(20):
            a = diag_dominant(8, 100 + seed)
            res = perturb_offdiag(a, 1e-3, seed=seed)
            assert res.kaiser_before == 8
            assert res.kaiser_after == res.kaiser_before

    def test_eigenvalues_match_eigh_and_asymmetric_rejected(self):
        # eigvalsh on the matrix and on its perturbed copy, which eigh's
        # magnitudes match to rounding; a non-symmetric matrix is refused
        a, sigma, seed = random_symmetric(12, 2), 0.05, 3
        res = perturb_offdiag(a, sigma, seed)
        noise = np.triu(default_rng(seed).standard_normal(a.shape) * sigma, 1)
        for got, m in ((res.eig_mags_before, a), (res.eig_mags_after, a + (noise + noise.T))):
            want = np.sort(np.abs(np.linalg.eigh(m)[0]))[::-1]
            assert np.max(np.abs(got - want)) <= 1e-13 * want[0]
        with pytest.raises(InputError, match="symmetric"):
            perturb_offdiag(np.array([[1.0, 2.0], [0.0, 1.0]]), sigma, seed)

    @pytest.mark.parametrize("sigma", [-1.0, float("nan"), float("inf"), "0.1", None, True])
    def test_sigma_must_be_a_finite_nonnegative_number(self, sigma, monkeypatch):
        # -1 and NaN were taken as 0; inf ended in a bare LinAlgError. The
        # check comes before any noise is drawn.
        monkeypatch.setattr(np.random, "default_rng", lambda *a: pytest.fail("noise drawn"))
        with pytest.raises(InputError, match="sigma must be a finite number >= 0"):
            perturb_offdiag(np.eye(3) * 2, sigma, seed=0)

    def test_descending_order(self):
        res = perturb_offdiag(random_symmetric(7, 9), 1e-3, seed=0)
        assert np.all(np.diff(res.eig_mags_before) <= 0)
        assert np.all(np.diff(res.eig_mags_after) <= 0)


class TestFft:
    def test_constant_matrix(self):
        spec = fft2(np.ones((4, 4)))
        assert spec[0, 0] == pytest.approx(16.0)
        assert np.max(np.abs(spec.ravel()[1:])) < 1e-12

    def test_single_impulse_flat_spectrum(self):
        a = np.zeros((3, 3))
        a[0, 0] = 1.0
        assert np.max(np.abs(fft2(a) - 1.0)) < 1e-12

    def test_matches_direct_dft_sum(self):
        a = default_rng(8).standard_normal((4, 5))
        m, n = a.shape
        direct = np.zeros((m, n), dtype=complex)
        for k in range(m):
            for l in range(n):
                for p in range(m):
                    for q in range(n):
                        direct[k, l] += a[p, q] * np.exp(-2j * np.pi * (p * k / m + q * l / n))
        assert np.max(np.abs(fft2(a) - direct)) < 1e-10

    def test_parseval(self):
        a = default_rng(9).standard_normal((8, 8))
        spec = fft2(a)
        assert abs(np.sum(np.abs(spec) ** 2) / 64 - np.sum(a**2)) < 1e-9


class TestSnr:
    def test_worked_example(self):
        # diagonal energy 4+4 = 8, single off-diagonal energy 1: 10*log10(8)
        m = np.array([[2.0, 0.0], [0.0, 2.0]])
        m_hat = np.array([[2.0, 1.0], [0.0, 2.0]])
        res = snr(m, m_hat)
        assert abs(res.db - 10.0 * math.log10(8.0)) < 1e-9
        assert not res.infinite

    def test_diagonal_estimate_is_infinite(self):
        res = snr(np.eye(3), np.eye(3))
        assert res.infinite
        assert math.isinf(res.db)

    def test_zero_signal_is_minus_infinite(self):
        res = snr(np.zeros((2, 2)), np.ones((2, 2)))
        assert res.infinite
        assert res.db == -math.inf

    def test_energies_far_apart(self):
        # the energies' quotient (2e-600) underflows float64; its logarithm does not
        res = snr(np.eye(2) * 1e-150, np.ones((2, 2)) * 1e150)
        assert abs(res.db - (10.0 * math.log10(2.0) - 6000.0)) < 1e-9
        # the noise energy itself overflows: a non-finite result, not a domain error
        with np.errstate(over="ignore"):
            res = snr(np.eye(2) * 1e-160, np.ones((2, 2)) * 1e160)
        assert not res.infinite
        assert res.db == -math.inf

    def test_only_upper_triangle_counts(self):
        m = np.eye(2)
        lower_only = np.array([[1.0, 0.0], [5.0, 1.0]])
        assert snr(m, lower_only).infinite

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            snr(np.eye(2), np.eye(3))


class TestFimStats:
    def test_constant_vector(self):
        stats = fim_hist_stats(np.full(10, 3.0))
        assert stats["mean"] == 3.0
        assert stats["std"] == 0.0
        assert stats["q50"] == 3.0

    def test_quantiles_ordered(self):
        stats = fim_hist_stats(default_rng(10).standard_normal((500,)))
        keys = ["q01", "q25", "q50", "q75", "q99"]
        vals = [stats[k] for k in keys]
        assert vals == sorted(vals)

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            fim_hist_stats(np.zeros(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        # NaN would make every statistic NaN, inf the mean and the std
        with pytest.raises(InputError, match="non-finite"):
            fim_hist_stats([bad, 1.0])
