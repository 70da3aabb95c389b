import numpy as np
import pytest
from helpers import random_valid_chain, truncated_power_absorption

from infoflow.errors import (
    AbsorptionUnreachableError,
    DimensionMismatchError,
    NegativeEntryError,
    RowSumError,
    SingularSystemError,
)
from infoflow.markov import (
    absorbing_reach,
    absorption_probabilities,
    build_canonical,
)
from infoflow.network import plug_in_chain


class TestBuildCanonical:
    def test_single_transient_chain(self):
        tm = build_canonical([[0.5]], [[0.25, 0.15, 0.10]])
        assert tm.n_transient == 1
        assert tm.n_absorbing == 3
        assert tm.state_order == ("t0", "DI", "S", "US")

    def test_closed_transient_loop_rejected(self):
        with pytest.raises(AbsorptionUnreachableError):
            build_canonical([[0, 1], [1, 0]], [[0, 0, 0], [0, 0, 0]])

    def test_row_sum_off_by_much_rejected(self):
        with pytest.raises(RowSumError):
            build_canonical([[0.5]], [[0.3, 0.3, 0.3]])

    def test_negative_entry_rejected(self):
        with pytest.raises(NegativeEntryError):
            build_canonical([[-0.1]], [[0.5, 0.3, 0.3]])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            build_canonical([[0.5, 0.1], [0.1, 0.5]], [[0.4, 0, 0]])

    def test_rows_within_tolerance_are_renormalized(self):
        eps = 2e-10
        tm = build_canonical([[0.5 + eps]], [[0.25, 0.15, 0.10]])
        assert tm.q.sum() + tm.r.sum() == pytest.approx(1.0, abs=1e-15)

    def test_custom_state_order(self):
        tm = build_canonical([[0.0]], [[0.2, 0.3, 0.5]], state_order=("X", "DI", "S", "US"))
        assert tm.transient_labels == ("X",)
        assert tm.absorbing_labels == ("DI", "S", "US")

    def test_supports_other_absorbing_counts(self):
        tm = build_canonical([[0.5]], [[0.5]])
        assert tm.n_absorbing == 1


class TestAbsorptionProbabilities:
    def test_geometric_single_state(self):
        tm = build_canonical([[0.5]], [[0.25, 0.15, 0.10]])
        b = absorption_probabilities(tm).b
        np.testing.assert_allclose(b, [[0.5, 0.3, 0.2]], atol=1e-14)

    def test_zero_q_returns_r(self):
        q = np.zeros((3, 3))
        r = np.array([[0.2, 0.3, 0.5], [1.0, 0.0, 0.0], [0.1, 0.1, 0.8]])
        tm = build_canonical(q, r)
        np.testing.assert_allclose(absorption_probabilities(tm).b, r, atol=1e-15)

    def test_reference_network_row_matches_path_enumeration(self, reference_spec):
        # Raw-frequency plug-in from A, checked against the independent
        # truncated-path oracle and the closed-form flow-conservation value.
        tm = plug_in_chain(reference_spec, "raw")
        row = absorption_probabilities(tm).row("A")
        oracle = truncated_power_absorption(tm.q, tm.r)[0]
        np.testing.assert_allclose(row, oracle, atol=1e-8)
        np.testing.assert_allclose(row, [0.30, 0.50, 0.20], atol=1e-6)

    def test_singular_system_surfaces_defensively(self):
        # Entries of 1e-300 satisfy strict positivity (so reachability holds)
        # but vanish in float row arithmetic, leaving I - Q exactly singular.
        tiny = 1e-300
        q = [[0.0, 1.0 - tiny], [1.0 - tiny, 0.0]]
        r = [[tiny, 0, 0], [tiny, 0, 0]]
        tm = build_canonical(q, r)
        with pytest.raises(SingularSystemError):
            absorption_probabilities(tm)

    def test_rows_sum_to_one_on_random_chains(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            q, r = random_valid_chain(rng)
            b = absorption_probabilities(build_canonical(q, r)).b
            np.testing.assert_allclose(b.sum(axis=1), 1.0, atol=1e-9)
            assert np.all(b >= -1e-12) and np.all(b <= 1 + 1e-12)

    def test_oracle_equivalence_on_random_chains(self):
        rng = np.random.default_rng(99)
        for _ in range(25):
            q, r = random_valid_chain(rng)
            b = absorption_probabilities(build_canonical(q, r)).b
            np.testing.assert_allclose(
                b, truncated_power_absorption(q, r), atol=1e-8
            )

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            q, r = random_valid_chain(rng)
            n = q.shape[0]
            perm = rng.permutation(n)
            b = absorption_probabilities(build_canonical(q, r)).b
            b_perm = absorption_probabilities(
                build_canonical(q[np.ix_(perm, perm)], r[perm])
            ).b
            np.testing.assert_allclose(b_perm, b[perm], atol=1e-9)

    def test_monotone_absorption_toward_di(self, reference_spec):
        # Shifting B's inter-stakeholder mass into its DI column must never
        # decrease the start state's discard probability.
        tm = plug_in_chain(reference_spec, "raw")
        i = tm.state_order.index("B")
        last = -1.0
        for delta in np.linspace(0.0, tm.q[i].sum(), 11):
            q = tm.q.copy()
            r = tm.r.copy()
            scale = (q[i].sum() - delta) / q[i].sum()
            q[i] *= scale
            r[i, 0] += delta
            b = absorption_probabilities(build_canonical(q, r, tm.state_order)).b
            p_di = b[tm.state_order.index("A"), 0]
            assert p_di >= last - 1e-12
            last = p_di



def test_absorbing_reach_masks_states_and_stacks():
    # t0 -> t1 -> absorbing; t2 <-> t3 is a closed loop; t4 absorbs directly.
    q = np.zeros((5, 5))
    q[0, 1] = q[2, 3] = q[3, 2] = 1.0
    r = np.zeros((5, 3))
    r[1, 1] = r[4, 0] = 1.0
    assert absorbing_reach(q, r).tolist() == [True, True, False, False, True]
    open_loop = r.copy()
    open_loop[3, 2] = 1.0
    stacked = absorbing_reach(np.stack([q, q]), np.stack([r, open_loop]))
    assert stacked.tolist() == [[True, True, False, False, True], [True] * 5]
