"""Singular spectrum, dependence indices, and the determinant oracle.

The spectral route (products of squared singular values) and the direct
ascent oracle are two independent evaluations of the same supremum; the
heavier cross-checks live in the acceptance suite, the quick ones here.
"""

import logging
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import (
    hadamard_joint,
    pearson_under,
    random_finite_rank,
    random_independent,
    random_joint,
    random_partition,
)
from depscale import (
    DependenceProfile,
    NonConvergenceError,
    SingularSpectrum,
    SvdFailureError,
    augment_with_independent,
    coarsen_y,
    dependence_scale,
    gram_det_oracle,
    make_joint,
    maximal_correlation,
    normalized_matrix,
    singular_spectrum,
)
import depscale
from depscale import spectral
from depscale.cli import main
from depscale.spectral import _EPS, _deflated_normalized, _log_det_images, _retract

FIXTURE = [[0.4, 0.1], [0.1, 0.4]]


def test_normalized_matrix_independent_is_rank_one():
    q = normalized_matrix(make_joint([[0.25, 0.25], [0.25, 0.25]]))
    assert_allclose(q, [[0.5, 0.5], [0.5, 0.5]])


def test_normalized_matrix_diagonal_is_identity():
    q = normalized_matrix(make_joint([[0.5, 0.0], [0.0, 0.5]]))
    assert_allclose(q, np.eye(2))


def test_normalized_matrix_fixture():
    q = normalized_matrix(make_joint(FIXTURE))
    assert_allclose(q, [[0.8, 0.2], [0.2, 0.8]])


def test_spectrum_of_independent_joint_vanishes():
    s = singular_spectrum(make_joint(np.outer([0.4, 0.6], [0.2, 0.3, 0.5])))
    assert s.sigma.shape == (1,)
    assert s.sigma[0] <= 1e-10


def test_spectrum_of_diagonal_joint_is_one():
    s = singular_spectrum(make_joint([[0.5, 0.0], [0.0, 0.5]]))
    assert_allclose(s.sigma, [1.0])


def test_spectrum_fixture():
    s = singular_spectrum(make_joint(FIXTURE))
    assert_allclose(s.sigma, [0.6], atol=1e-12)
    assert_allclose(s.sigma0, 1.0, atol=1e-12)


def test_spectrum_length_and_certificate():
    rng = np.random.default_rng(7)
    for _ in range(20):
        j = random_joint(rng, int(rng.integers(2, 7)), int(rng.integers(2, 7)))
        s = singular_spectrum(j)
        assert s.sigma.shape == (min(j.n_x, j.n_y) - 1,)
        assert abs(s.sigma0 - 1.0) <= 1e-10
        assert np.all(np.diff(s.sigma) <= 1e-12)
        assert np.all(s.sigma >= 0.0) and np.all(s.sigma <= 1.0)


class TestSingularSpectrumValidation:
    def test_rejects_bad_certificate(self):
        with pytest.raises(SvdFailureError, match="not 1"):
            SingularSpectrum(sigma0=0.7, sigma=np.array([0.5]), shape=(2, 2))

    def test_rejects_out_of_range_values(self):
        with pytest.raises(SvdFailureError):
            SingularSpectrum(sigma0=1.0, sigma=np.array([1.5]), shape=(2, 2))

    def test_rejects_ascending_values(self):
        with pytest.raises(SvdFailureError):
            SingularSpectrum(sigma0=1.0, sigma=np.array([0.2, 0.8]), shape=(3, 3))

    @pytest.mark.parametrize("tol", [-1.0, -1e-300, np.nan, np.inf])
    def test_tolerance_methods_reject_a_bad_tol(self, tol):
        # Independent table: a negative or NaN tol would count sigma = [0]
        # as nonzero and call the joint complete.
        s = singular_spectrum(make_joint([[0.25, 0.25], [0.25, 0.25]]))
        for method in (s.order, s.complete, lambda tol: s.profile(None, tol)):
            with pytest.raises(ValueError, match="tol must be finite and >= 0"):
                method(tol)

    def test_zero_tol_is_accepted(self):
        s = singular_spectrum(make_joint(FIXTURE))
        assert s.order(0.0) == 1 and s.complete(0.0)


def dependence_index(j):
    return singular_spectrum(j).r ** 2


def test_kolmogorov_index_examples():
    assert dependence_index(make_joint([[0.25, 0.25], [0.25, 0.25]])) <= 1e-15
    assert_allclose(dependence_index(make_joint([[0.5, 0.0], [0.0, 0.5]])), 1.0)
    assert_allclose(dependence_index(make_joint(FIXTURE)), 0.36, atol=1e-12)


def test_maximal_correlation_examples():
    assert maximal_correlation(make_joint([[0.25, 0.25], [0.25, 0.25]])) <= 1e-15
    assert_allclose(maximal_correlation(make_joint([[0.5, 0.0], [0.0, 0.5]])), 1.0)
    assert_allclose(maximal_correlation(make_joint(FIXTURE)), 0.6, atol=1e-12)


def test_dependence_scale_fixture():
    prof = dependence_scale(make_joint(FIXTURE), 1)
    assert_allclose(prof.r, 0.6, atol=1e-12)
    assert_allclose(prof.d, [0.36, 0.0], atol=1e-12)
    assert prof.order == 1


def test_dependence_scale_beyond_rank_is_zero():
    rng = np.random.default_rng(8)
    j = random_joint(rng, 3, 4)
    prof = dependence_scale(j, 5)
    assert prof.d.shape == (6,)
    assert np.all(prof.d[min(j.n_x, j.n_y) - 1 :] == 0.0)


def test_dependence_scale_independent_all_zero():
    j = make_joint(np.outer([0.4, 0.6], [0.2, 0.3, 0.5]))
    prof = dependence_scale(j, 2)
    assert np.all(prof.d <= 1e-15)
    assert prof.order == 0


def test_profile_head_is_r_squared():
    rng = np.random.default_rng(9)
    for _ in range(25):
        j = random_joint(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
        prof = dependence_scale(j, 3)
        assert abs(prof.d[0] - prof.r**2) <= 1e-10


def test_profile_chain_zero_propagates():
    # D_m = 0 forces D_{m+1} = 0 exactly, not just within tolerance.
    j = make_joint(FIXTURE)
    prof = dependence_scale(j, 3)
    hit_zero = False
    for value in prof.d:
        if hit_zero:
            assert value == 0.0
        hit_zero = hit_zero or value == 0.0
    assert hit_zero


class TestDependenceProfileValidation:
    def test_rejects_increasing_values(self):
        with pytest.raises(SvdFailureError, match="non-increasing"):
            DependenceProfile(r=0.5, d=np.array([0.25, 0.5]), order=None)

    def test_rejects_head_mismatch(self):
        with pytest.raises(SvdFailureError, match="r\\*\\*2"):
            DependenceProfile(r=0.9, d=np.array([0.25]), order=None)

    def test_rejects_out_of_range(self):
        with pytest.raises(SvdFailureError):
            DependenceProfile(r=1.1, d=np.array([1.21]), order=None)


def test_m_dependence_order_examples():
    assert singular_spectrum(make_joint([[0.25, 0.25], [0.25, 0.25]])).order() == 0
    assert singular_spectrum(make_joint(FIXTURE)).order() == 1
    rng = np.random.default_rng(10)
    j = random_joint(rng, 4, 5)  # full rank almost surely
    assert singular_spectrum(j).order() == 3


def test_oracle_fixture():
    assert_allclose(gram_det_oracle(make_joint(FIXTURE), 0), 0.36, atol=1e-6)


def test_oracle_independent_vanishes():
    j = make_joint(np.outer([0.3, 0.3, 0.4], [0.2, 0.5, 0.3]))
    assert gram_det_oracle(j, 1) <= 1e-9


def test_oracle_matches_spectral_product_on_random_fours():
    rng = np.random.default_rng(11)
    for _ in range(10):
        j = random_joint(rng, 4, 4)
        sigma = singular_spectrum(j).sigma
        want = float(sigma[0] ** 2 * sigma[1] ** 2)
        assert abs(gram_det_oracle(j, 1) - want) <= 1e-6


def test_oracle_beyond_feasible_tuple_returns_zero():
    # m+1 orthonormal mean-zero functions cannot exist on a 2-atom alphabet.
    assert gram_det_oracle(make_joint(FIXTURE), 1) == 0.0


def test_oracle_rejects_nonpositive_restarts():
    with pytest.raises(ValueError, match="restarts"):
        gram_det_oracle(make_joint(FIXTURE), 0, restarts=0)


def test_oracle_reports_failure_when_budget_is_exhausted():
    rng = np.random.default_rng(9)
    j = random_joint(rng, 3, 3)
    with pytest.raises(NonConvergenceError, match="restart"):
        gram_det_oracle(j, 0, restarts=2, tol=1e-30, max_iter=1)


def test_oracle_is_seed_reproducible():
    j = make_joint(FIXTURE)
    a = gram_det_oracle(j, 0, restarts=4, seed=5)
    b = gram_det_oracle(j, 0, restarts=4, seed=5)
    assert a == b


def _images(Mt, B):
    n = Mt.shape[0]
    floor = 64 * n * _EPS * (np.linalg.norm(Mt) + n * _EPS)
    return _log_det_images(Mt, B, floor)


class TestBatchAdjugate:
    """The oracle's gradient needs adj(S) / det S = S^-1 for every frame of
    a stack; a frame with det S = 0 is null rather than divided by zero."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_invertible_stacks_match_det_times_inverse(self, k):
        rng = np.random.default_rng(60 + k)
        a = rng.standard_normal((8, 8))
        Mt = a @ a.T
        B = _retract(rng.standard_normal((50, 8, k)))
        MtB, S_inv, f, null = _images(Mt, B)
        assert not null.any()
        assert_allclose(MtB, np.einsum("ij,rjk->rik", Mt, B), rtol=1e-12, atol=1e-12)
        s = np.swapaxes(B, 1, 2) @ Mt @ B
        det = np.linalg.det(s)
        assert_allclose(f, np.log(det), rtol=1e-12, atol=1e-12)
        want = det[:, None, None] * np.linalg.inv(s)
        assert_allclose(np.exp(f)[:, None, None] * S_inv, want, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_rank_deficient_stacks(self, k):
        rng = np.random.default_rng(70 + k)
        for rank in range(k):
            a = rng.standard_normal((12, rank))
            B = _retract(rng.standard_normal((30, 12, k)))
            # S = B' a a' B has rank at most rank < k, so det S = 0.
            MtB, S_inv, f, null = _images(a @ a.T, B)
            assert null.all(), rank
            assert np.isfinite(MtB).all() and np.isfinite(S_inv).all()

    def test_symmetric_stack_gives_symmetric_adjugate(self):
        rng = np.random.default_rng(80)
        w = rng.standard_normal((10, 6))
        B = _retract(rng.standard_normal((20, 10, 3)))
        _, S_inv, _, null = _images(w @ w.T, B)
        assert not null.any()
        assert_allclose(S_inv, np.swapaxes(S_inv, 1, 2), rtol=1e-12, atol=1e-12)


class TestOracleRelativeAccuracy:
    """The oracle is accurate relative to the value it audits, at every order,
    and decides a zero maximum without running out its budget."""

    @pytest.mark.parametrize(
        "kind, n, seed",
        [("hadamard", 64, 1), ("hadamard", 256, 2), ("dirichlet", 64, 0), ("dirichlet", 64, 1)],
    )
    def test_relative_error_at_orders_0_to_3(self, kind, n, seed):
        rng = np.random.default_rng(seed)
        if kind == "hadamard":
            # The near-tied leading spectrum of the benchmark's audit tables.
            j = hadamard_joint(rng, n, 0.12 * 0.993 ** np.arange(8))
        else:
            j = random_joint(rng, n, n)
        for m in range(4):
            want = dependence_scale(j, m).d[m]
            assert abs(gram_det_oracle(j, m) - want) <= 1e-8 * want, m

    def test_weak_dependence_is_audited_relative_to_its_size(self):
        # sigma_1 = 1e-6, so d[0] = 1e-12 sits far below any absolute tolerance.
        e = 2.5e-7
        j = make_joint([[0.25 + e, 0.25 - e], [0.25 - e, 0.25 + e]])
        want = dependence_scale(j, 0).d[0]
        assert abs(gram_det_oracle(j, 0) - want) <= 1e-8 * want

    @pytest.mark.parametrize("n, rank", [(8, 1), (8, 2), (64, 2)])
    def test_zero_maximum_beyond_the_rank(self, n, rank):
        j = random_finite_rank(np.random.default_rng(40 + rank), rank, n, n)
        for m in (rank, rank + 1):
            assert gram_det_oracle(j, m) <= 1e-12, m


class TestOracleLog:
    """One DEBUG record per call on the ``depscale`` logger, silent by default."""

    def test_one_debug_record_with_the_restart_counts(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="depscale"):
            gram_det_oracle(make_joint(FIXTURE), 0, restarts=4)
        (record,) = caplog.records
        assert record.name == "depscale" and record.levelno == logging.DEBUG
        assert re.fullmatch(
            r"gram_det_oracle m=0: 4 of 4 restarts converged, 0 null, \d+ iterations",
            record.getMessage(),
        )

    def test_null_restarts_are_counted(self, caplog):
        j = random_finite_rank(np.random.default_rng(41), 1, 6, 6)
        with caplog.at_level(logging.DEBUG, logger="depscale"):
            assert gram_det_oracle(j, 1, restarts=4) == 0.0
        (record,) = caplog.records
        assert "0 of 4 restarts converged, 4 null" in record.getMessage()

    def test_silent_by_default(self, caplog):
        gram_det_oracle(make_joint(FIXTURE), 0, restarts=4)
        assert caplog.records == []


def _write_table(path, probs):
    np.savetxt(path, probs, delimiter=",", fmt="%.17g")  # round-trips exactly
    return str(path)


def _spectrum_path(caplog, j):
    """The spectrum of ``j`` and what its DEBUG record says of the SVDs."""
    with caplog.at_level(logging.DEBUG, logger="depscale"):
        s = singular_spectrum(j)
    (record,) = [r for r in caplog.records if r.getMessage().startswith("spectrum")]
    caplog.clear()
    return s, re.fullmatch(r"spectrum of \d+ x \d+ cells: SVDs (.*), BLAS threads (.*)",
                           record.getMessage()).groups()


def _big_joint():
    """512 x 520 cells: a shorter side past the GIL's 500, yet quick."""
    return random_joint(np.random.default_rng(3), 512, 520)


class TestSideBySide:
    """Every spectrum's two SVDs run with OpenBLAS held to one thread, and a
    large table's run at once."""

    @pytest.fixture
    def blas(self):
        """OpenBLAS's thread-count getter and setter, at two threads where the
        host has them, and the count checked and set back after the test."""
        blas = spectral._openblas()
        if blas is None:
            pytest.skip("numpy carries no OpenBLAS of its own")
        get, set_ = blas
        old = get()
        set_(2)
        want = get()
        yield blas
        after = get()
        set_(old)
        assert after == want

    def test_values_equal_the_serial_values(self, caplog, blas):
        j = _big_joint()
        assert min(j.probs.shape) > spectral._GIL_FREE_SIDE
        s, (how, threads) = _spectrum_path(caplog, j)
        assert (how, threads) == ("side by side", "1")
        get, set_ = blas
        old = get()
        set_(1)
        try:
            Q, Qc = _deflated_normalized(j)
            sigma0 = np.linalg.svd(Q, compute_uv=False)[0]
            sigma = np.linalg.svd(Qc, compute_uv=False)[:511]
        finally:
            set_(old)
        assert s.sigma0 == sigma0
        assert s.sigma.tobytes() == np.clip(sigma, 0.0, 1.0).tobytes()

    @pytest.mark.parametrize("shape", [(512, 512), (501, 501), (500, 530)],
                             ids=["at", "first", "below"])
    def test_the_worker_leaves_the_caller_cpu(self, monkeypatch, blas, shape):
        """Once the shorter side passes 500 the caller asks, for the worker
        thread's native id, every usable CPU but its own; at 500, however
        many cells, no worker and no call."""
        svd_values, workers, asked = spectral._svd_values, [], []

        def recorded(a):
            if threading.current_thread() is not threading.main_thread():
                workers.append(threading.get_native_id())
            return svd_values(a)

        monkeypatch.setattr(spectral, "_svd_values", recorded)
        monkeypatch.setattr(depscale.joints, "_current_cpu", lambda: 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        monkeypatch.setattr(os, "sched_setaffinity",
                            lambda pid, cpus: asked.append((pid, sorted(cpus))), raising=False)
        singular_spectrum(random_joint(np.random.default_rng(7), *shape))
        if min(shape) > spectral._GIL_FREE_SIDE:
            assert len(workers) == 1 and asked == [(workers[0], [0, 2])]
        else:
            assert workers == [] and asked == []

    @pytest.mark.parametrize(
        "side, joint",
        [("worker", _big_joint), ("caller", _big_joint), ("caller", lambda: make_joint(FIXTURE))],
        ids=["worker", "caller", "small"],
    )
    def test_a_failed_svd_is_raised_and_the_thread_count_restored(
        self, monkeypatch, blas, side, joint
    ):
        svd_values = spectral._svd_values

        def failing(a):
            if (threading.current_thread() is threading.main_thread()) == (side == "caller"):
                raise SvdFailureError(f"SVD did not converge on the {side}")
            return svd_values(a)

        monkeypatch.setattr(spectral, "_svd_values", failing)
        with pytest.raises(SvdFailureError, match=f"on the {side}"):
            singular_spectrum(joint())

    @pytest.mark.parametrize("shape", [(1, 3), (2, 2), (8, 64), (128, 128), (256, 300), (480, 560),
                                       (501, 520), (512, 520)],
                             ids=lambda shape: "x".join(map(str, shape)))
    def test_every_svd_runs_on_one_blas_thread(self, monkeypatch, caplog, blas, shape):
        svd_values, threads_seen = spectral._svd_values, []

        def recorded(a):
            threads_seen.append(blas[0]())
            return svd_values(a)

        monkeypatch.setattr(spectral, "_svd_values", recorded)
        j = random_joint(np.random.default_rng(4), *shape)
        _, (how, threads) = _spectrum_path(caplog, j)
        assert threads_seen == [1, 1]
        side_by_side = min(shape) > spectral._GIL_FREE_SIDE
        assert (how, threads) == ("side by side" if side_by_side else "one after the other", "1")

    def test_silent_by_default(self, caplog, blas):
        singular_spectrum(_big_joint())
        assert caplog.records == []

    def test_without_openblas_the_same_report(self, capsys, caplog, tmp_path):
        path = _write_table(tmp_path / "j.csv", _big_joint().probs)
        assert main(["compute", path]) == 0
        want = capsys.readouterr().out

        def no_library(*args, **kwargs):
            raise OSError("no such library")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral.ctypes, "CDLL", no_library)
            spectral._openblas.cache_clear()
            try:
                _, (how, threads) = _spectrum_path(caplog, _big_joint())
                assert main(["compute", path]) == 0
            finally:
                spectral._openblas.cache_clear()
        assert (how, threads) == ("one after the other", "unknown")
        assert capsys.readouterr().out == want

    def test_report_does_not_depend_on_the_blas_thread_count(self, tmp_path):
        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("OpenBLAS threads nothing on one CPU")
        # Found here, not by spectral._openblas, whose loss this test catches.
        if not list((Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas*")):
            pytest.skip("numpy carries no OpenBLAS of its own")

        # Each table is large enough that OpenBLAS threads its work on two
        # CPUs; 230 x 230 runs its SVDs one after the other, 768 x 768 side
        # by side.  The CLI holds OpenBLAS to one thread, so a host with
        # more threads prints the same bytes.  A user's two threads reach
        # every subcommand's BLAS, but a spectrum pins its own SVD pair, so
        # `compute` still prints the same bytes under them.
        w = np.random.default_rng(230).dirichlet(np.ones(230 * 230)).reshape(230, 230)
        mid = _write_table(tmp_path / "mid.csv", w)
        w = np.random.default_rng(5).dirichlet(np.ones(768 * 768)).reshape(768, 768)
        large = _write_table(tmp_path / "large.csv", w)
        w = random_joint(np.random.default_rng(1), 128, 128).probs
        audit = _write_table(tmp_path / "audit.csv", w)
        w = np.array([[1.0, 0.5, 0.3], [0.5, 2.0, 0.4], [0.3, 0.4, 1.5]])
        cov = _write_table(tmp_path / "cov.csv", w)
        src = str(Path(depscale.__file__).parents[1])
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        for argv in (["compute", mid], ["compute", large], ["oracle", audit],
                     ["transforms", audit, "-k", "4"], ["gaussian", cov, "--dim-x", "1"]):
            threads = ("1", "2") if argv[0] == "compute" else ("1",)
            runs = [
                subprocess.run([sys.executable, "-m", "depscale.cli", *argv],
                               env=dict(env, **extra), capture_output=True, check=True,
                               timeout=120).stdout
                for extra in ({}, *({"OPENBLAS_NUM_THREADS": n} for n in threads))
            ]
            assert runs[1:] == runs[:1] * len(threads), argv


# ---------------------------------------------------------------------------
# invariants on generated joints


def test_transpose_symmetry():
    rng = np.random.default_rng(12)
    for _ in range(30):
        j = random_joint(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
        t = j.transposed()
        assert abs(maximal_correlation(j) - maximal_correlation(t)) <= 1e-10
        a = dependence_scale(j, 3).d
        b = dependence_scale(t, 3).d
        assert_allclose(a, b, atol=1e-10)


def test_range_of_scale_values():
    rng = np.random.default_rng(13)
    for _ in range(30):
        j = random_joint(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
        d = dependence_scale(j, 4).d
        assert np.all(d >= 0.0) and np.all(d <= 1.0)


def test_independence_in_both_directions():
    rng = np.random.default_rng(14)
    for _ in range(20):
        j = random_independent(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
        assert maximal_correlation(j) <= 1e-10
    for _ in range(20):
        j = random_joint(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
        if maximal_correlation(j) <= 1e-10:
            gap = np.max(np.abs(j.probs - np.outer(j.p_x, j.p_y)))
            assert gap <= 1e-8


def test_coarsening_cannot_increase_dependence():
    rng = np.random.default_rng(15)
    for _ in range(25):
        j = random_joint(rng, int(rng.integers(2, 6)), int(rng.integers(3, 6)))
        co = coarsen_y(j, random_partition(rng, j.n_y))
        assert dependence_index(co) <= dependence_index(j) + 1e-10
        d_full = dependence_scale(j, 3).d
        d_co = dependence_scale(co, 3).d
        assert np.all(d_co <= d_full + 1e-10)


def test_augmentation_with_independent_z_changes_nothing():
    rng = np.random.default_rng(16)
    for _ in range(25):
        j = random_joint(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
        n_z = int(rng.integers(2, 4))
        r = rng.dirichlet(np.ones(n_z)) * 0.9 + 0.1 / n_z
        aug = augment_with_independent(j, r)
        assert_allclose(
            dependence_scale(aug, 3).d, dependence_scale(j, 3).d, atol=1e-10
        )


def test_maximal_correlation_dominates_pearson():
    rng = np.random.default_rng(17)
    for _ in range(30):
        j = random_joint(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
        assert maximal_correlation(j) >= abs(pearson_under(j)) - 1e-10
