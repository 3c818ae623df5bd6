import numpy as np
import pytest

from spinsqueeze import (CollectiveOperator, DickeState, ValidationError,
                         build_angular_momentum, build_hamiltonian, casimir,
                         coherent_spin_state, default_t_max, expectation, OAT,
                         propagate_static, symmetrized_covariance)
from spinsqueeze.spin_core import _bands

import oracles


def op(n, label):
    return build_angular_momentum(n, label)


class TestAngularMomentum:
    def test_single_spin_jz(self):
        jz = op(1, "Jz")
        assert np.allclose(jz.matrix, np.diag([0.5, -0.5]))

    def test_two_spin_jplus_entries(self):
        jp = op(2, "Jplus").matrix
        # J=1 ladder: sqrt(2) coupling m=-1 -> 0 and m=0 -> 1
        assert jp[1, 2] == pytest.approx(np.sqrt(2))
        assert jp[0, 1] == pytest.approx(np.sqrt(2))
        assert np.count_nonzero(jp) == 2

    def test_jx_spectrum_n10(self):
        evals = np.linalg.eigvalsh(op(10, "Jx").matrix)
        assert np.allclose(np.sort(evals), np.arange(-5, 6), atol=1e-10)

    def test_rejects_zero_atoms(self):
        with pytest.raises(ValidationError):
            build_angular_momentum(0, "Jz")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_atom_count(self, bad):
        with pytest.raises(ValidationError, match="positive integer"):
            build_angular_momentum(bad, "Jz")
        with pytest.raises(ValidationError, match="positive integer"):
            coherent_spin_state(bad, "+y")
        with pytest.raises(ValidationError, match="positive integer"):
            default_t_max(bad)

    def test_rejects_oversize(self):
        with pytest.raises(ValidationError):
            build_angular_momentum(2001, "Jz")

    def test_rejects_unknown_component(self):
        with pytest.raises(ValidationError):
            build_angular_momentum(4, "Jq")

    @pytest.mark.parametrize("matrix, label, match", [
        (np.zeros((4, 4)), "Hamiltonian", "expected \\(5, 5\\)"),
        (np.zeros((5, 5)), "Jq", "unknown operator label"),
    ], ids=["wrong-shape", "unknown-label"])
    def test_operator_rejects_malformed(self, matrix, label, match):
        with pytest.raises(ValidationError, match=match):
            CollectiveOperator(4, matrix, label)

    def test_matches_independent_construction(self):
        jx, jy, jz = oracles.raw_spin_matrices(7)
        assert np.allclose(op(7, "Jx").matrix, jx, atol=1e-12)
        assert np.allclose(op(7, "Jy").matrix, jy, atol=1e-12)
        assert np.allclose(op(7, "Jz").matrix, jz, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 25, 50])
    def test_commutator_closure(self, n):
        jx, jy, jz = (op(n, c).matrix for c in ("Jx", "Jy", "Jz"))
        assert np.max(np.abs(jx @ jy - jy @ jx - 1j * jz)) < 1e-10
        assert np.max(np.abs(jy @ jz - jz @ jy - 1j * jx)) < 1e-10
        assert np.max(np.abs(jz @ jx - jx @ jz - 1j * jy)) < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_ladder_conjugation_exact(self, n):
        jp = op(n, "Jplus").matrix
        jm = op(n, "Jminus").matrix
        assert np.array_equal(jp, jm.conj().T)

    @pytest.mark.parametrize("n", [1, 3, 12])
    def test_hermiticity(self, n):
        for label in ("Jx", "Jy", "Jz"):
            assert op(n, label).is_hermitian()

    @pytest.mark.parametrize("n", [1, 2, 7, 100])  # +-2 band empty, one entry, full
    def test_jx2_bands_match_dense_product(self, n):
        jx = op(n, "Jx").matrix
        jx2 = jx @ jx
        diag, upper = _bands(n)[2:4]
        banded = np.diag(diag) + np.diag(upper, 2) + np.diag(upper, -2)
        assert len(upper) == n - 1
        assert np.max(np.abs(banded - jx2)) <= 1e-12 * n * n
        # every band of the table against the oracle's own ladder matrices
        jx, jy, jz = oracles.raw_spin_matrices(n)
        jp = jx + 1j * jy
        table = _bands(n)
        jp_band, jpz_band, side, upper, m2 = table
        for band, dense in [
                (jp_band, np.diag(jp, 1)),
                (jpz_band, np.diag(jp @ (2 * jz + np.eye(n + 1)), 1)),
                (side, np.diag(jx @ jx)), (upper, np.diag(jx @ jx, 2)),
                (side, np.diag(jy @ jy)), (-upper, np.diag(jy @ jy, 2)),
                (m2, np.diag(jz @ jz))]:
            assert band.shape == dense.shape
            assert np.allclose(band, dense, rtol=0, atol=1e-12 * n * n)
        assert not any(band.flags.writeable for band in table)
        assert all(a is b for a, b in zip(table, _bands(n)))


class TestCoherentSpinState:
    def test_n2_plus_y_amplitudes(self):
        state = coherent_spin_state(2, "+y")
        expected = np.array([0.5, 1j / np.sqrt(2), -0.5])
        assert np.allclose(state.amplitudes, expected, atol=1e-12)

    def test_n2_plus_x_amplitudes(self):
        state = coherent_spin_state(2, "+x")
        expected = np.array([0.5, 1 / np.sqrt(2), 0.5])
        assert np.allclose(state.amplitudes, expected, atol=1e-12)

    def test_n100_plus_y_is_jy_eigenstate(self):
        state = coherent_spin_state(100, "+y")
        assert expectation(op(100, "Jy"), state) == pytest.approx(50, abs=1e-10)

    def test_rejects_bad_direction(self):
        with pytest.raises(ValidationError):
            coherent_spin_state(4, "+z")
        with pytest.raises(ValidationError, match="direction must be"):
            coherent_spin_state(4, None)
        for doubled in ("++x", "+++y"):  # one leading + at most
            with pytest.raises(ValidationError, match="direction must be"):
                coherent_spin_state(4, doubled)

    @pytest.mark.parametrize("n", [2, 10, 100, 1000])
    @pytest.mark.parametrize("axis", ["+x", "+y"])
    def test_extremality(self, n, axis):
        state = coherent_spin_state(n, axis)
        along = op(n, "Jx" if axis == "+x" else "Jy")
        assert expectation(along, state) == pytest.approx(n / 2, abs=1e-10)
        transverse = [op(n, "Jz"),
                      op(n, "Jy" if axis == "+x" else "Jx")]
        for t_op in transverse:
            var = symmetrized_covariance(t_op, t_op, state)
            assert var == pytest.approx(n / 4, abs=1e-10)

    @pytest.mark.parametrize("axis", ["+x", "+y"])
    def test_reversal_symmetry_is_exact(self, axis):
        # amplitude N-k is s_k times amplitude k, s_k = i^N (-1)^k for +y and
        # 1 for +x, bit for bit; the +y amplitudes are real at even k and
        # imaginary at odd k, exactly. The phases from 1j ** k were off past
        # k = 100, and ln N! - ln k! - ln (N-k)! rounded by subtraction order
        units = np.array([1, 1j, -1, -1j])
        broken = []
        for n in [*range(1, 70), 99, 100, 101, 600, 601, 1999, 2000]:
            k = np.arange(n + 1)
            amps = coherent_spin_state(n, axis).amplitudes
            sign = units[n % 4] * (-1) ** k if axis == "+y" else np.ones(n + 1)
            exact = np.array_equal(amps[::-1], sign * amps)
            if axis == "+y":
                exact &= not (amps.imag[0::2].any() or amps.real[1::2].any())
            if not exact:
                broken.append(n)
        assert broken == []


class TestMoments:
    def test_jz_on_css_y_vanishes(self):
        state = coherent_spin_state(12, "+y")
        assert expectation(op(12, "Jz"), state) == pytest.approx(0, abs=1e-10)

    def test_jy_on_css_y_is_j(self):
        state = coherent_spin_state(10, "+y")
        assert expectation(op(10, "Jy"), state) == pytest.approx(5, abs=1e-10)

    def test_jx_squared_css_y_n4(self):
        state = coherent_spin_state(4, "+y")
        jx = op(4, "Jx")
        sq = jx.matrix @ jx.matrix
        from spinsqueeze import CollectiveOperator
        jx2 = CollectiveOperator(4, sq, "Hamiltonian")
        assert expectation(jx2, state) == pytest.approx(1, abs=1e-10)
        _, var = oracles.mean_and_variance(state.amplitudes,
                                           oracles.raw_spin_matrices(4)[0])
        assert var == pytest.approx(1, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            expectation(op(4, "Jz"), coherent_spin_state(5, "+y"))

    def test_non_hermitian_rejected(self):
        # <J+> on CSS +y is i*J: large imaginary part flags the misuse
        with pytest.raises(ValidationError):
            expectation(op(10, "Jplus"), coherent_spin_state(10, "+y"))

    def test_covariance_css_variance(self):
        state = coherent_spin_state(2, "+y")
        jx = op(2, "Jx")
        assert symmetrized_covariance(jx, jx, state) == pytest.approx(0.5, abs=1e-12)

    def test_covariance_rejects_non_hermitian(self):
        # <J+> on CSS +y is i*J, as in test_non_hermitian_rejected
        with pytest.raises(ValidationError, match="must be Hermitian"):
            symmetrized_covariance(op(10, "Jplus"), op(10, "Jx"),
                                   coherent_spin_state(10, "+y"))

    def test_covariance_cross_term_vanishes(self):
        for n in (2, 9, 30):
            state = coherent_spin_state(n, "+y")
            assert symmetrized_covariance(op(n, "Jx"), op(n, "Jz"), state) \
                == pytest.approx(0, abs=1e-10)

    def test_covariance_matches_expm_oracle(self):
        n, t = 4, 0.1
        initial = coherent_spin_state(n, "+y")
        traj = propagate_static(build_hamiltonian(OAT(), n), initial, [0.0, t])
        jx, jz = op(n, "Jx"), op(n, "Jz")
        got = symmetrized_covariance(jx, jz, traj.states[-1])
        rx, _, rz = oracles.raw_spin_matrices(n)
        psi = oracles.evolve_expm(rx @ rx, initial.amplitudes, t)
        want = oracles.symmetrized_covariance_raw(psi, rx, rz)
        assert got == pytest.approx(want, abs=1e-10)


class TestDickeState:
    def test_rejects_wrong_length(self):
        with pytest.raises(ValidationError):
            DickeState(3, np.array([1.0, 0.0]))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            DickeState(1, np.array([1.0, 1.0]))
        with pytest.raises(ValidationError):
            DickeState(1, np.array([np.nan, 0.0]))

    def test_amplitudes_immutable(self):
        state = coherent_spin_state(3, "+x")
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0

    @pytest.mark.parametrize("n", [1, 4, 17, 64])
    def test_casimir_on_random_states(self, n):
        rng = np.random.default_rng(n)
        amp = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        state = DickeState(n, amp / np.linalg.norm(amp))
        j = n / 2
        assert expectation(casimir(n), state) == pytest.approx(j * (j + 1), abs=1e-8)
