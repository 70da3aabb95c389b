import numpy as np
import pytest
from helpers import (
    dirichlet_sample,
    document_bytes,
    enumerate_paths_absorption,
    flow_counts,
    layered_network,
    sum_order_spec,
    unreached_spec,
    wide_row_network,
)
from hypothesis import example, given
from hypothesis import strategies as st

from infoflow import network, parse_network, reference_network_path
from infoflow.dirichlet import CountVector, noninformative_posterior
from infoflow.errors import ValidationError
from infoflow.markov import ABSORBING_ORDER, absorption_probabilities, build_canonical
from infoflow.network import (
    FlowRecord,
    NetworkSpec,
    Stakeholder,
    _compiled,
    _fill_draws,
    _plug_in_qr,
    plug_in_chain,
    sampled_chain,
    validate,
)
from infoflow.rng import stream
from infoflow.sensitivity import rank_details


def spec_of(flows, ids=None, start=None, levels=None):
    names = ids or sorted({f[0] for f in flows} | {f[1] for f in flows if f[1] not in ("DI", "S", "US")})
    levels = levels or {}
    stakeholders = tuple(Stakeholder(n, levels.get(n, "state")) for n in names)
    records = tuple(FlowRecord(*f) for f in flows)
    return NetworkSpec(stakeholders, records, start or names[0])


class TestValidate:
    def test_reference_network_is_clean(self, reference_spec):
        assert validate(reference_spec).ok

    def test_dead_end_transient_state(self):
        spec = spec_of([("A", "X", 5.0)], ids=["A", "X"])
        report = validate(spec)
        assert any("dead-end transient state" in v for v in report.violations)

    def test_negative_frequency(self):
        spec = spec_of([("A", "S", -3.0)], ids=["A"])
        report = validate(spec)
        assert any("negative frequency" in v for v in report.violations)

    def test_self_loop(self):
        spec = spec_of([("A", "A", 2.0), ("A", "S", 1.0)], ids=["A"])
        assert any("self-loop" in v for v in validate(spec).violations)

    def test_duplicate_flow(self):
        spec = spec_of([("A", "S", 2.0), ("A", "S", 3.0)], ids=["A"])
        assert any("duplicate flow" in v for v in validate(spec).violations)

    def test_unknown_endpoint(self):
        spec = spec_of([("A", "Z", 2.0)], ids=["A"])
        assert any("unknown state 'Z'" in v for v in validate(spec).violations)

    def test_missing_start(self):
        spec = NetworkSpec((Stakeholder("A", "federal"),),
                           (FlowRecord("A", "S", 1.0),), "Q")
        assert any("start" in v for v in validate(spec).violations)

    def test_absorption_unreachable_cycle(self):
        spec = spec_of([("A", "B", 1.0), ("B", "A", 1.0)], ids=["A", "B"])
        assert any("no absorbing state reachable" in v for v in validate(spec).violations)

    def test_disconnected_component_with_absorption_is_fine(self):
        spec = spec_of([("A", "S", 1.0), ("F", "US", 2.0)], ids=["A", "F"], start="A")
        assert validate(spec).ok


@pytest.mark.parametrize("frequency", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_frequency_is_a_violation(frequency):
    spec = spec_of([("A", "B", frequency), ("B", "S", 1.0)], ids=["A", "B"])
    assert validate(spec).violations == (f"non-finite frequency {frequency} on flow A->B",)


def test_an_overflowing_total_outflow_is_a_violation():
    # Each frequency is finite, but A's total overflows float64.
    spec = spec_of([("A", "B", 1e308), ("A", "S", 1e308), ("B", "S", 1.0)], ids=["A", "B"])
    assert validate(spec).violations == ("non-finite total outflow inf of stakeholder 'A'",)


def test_validate_matches_a_graph_walk_on_random_networks():
    # Reference: a forward walk from each stakeholder over positive flows.
    rng = np.random.default_rng(5)
    for _ in range(300):
        ids = [f"N{i}" for i in range(int(rng.integers(1, 8)))]
        flows = [
            (a, b, float(rng.choice([0.0, 0.0, 1.0, 3.5])))
            for a in ids
            for b in ids + list(ABSORBING_ORDER)
            if a != b and rng.random() < 0.3
        ]
        out = {a: [b for x, b, c in flows if x == a and c > 0] for a in ids}

        def absorbs(sid):
            seen, todo = set(), [sid]
            while todo:
                s = todo.pop()
                if s in ABSORBING_ORDER:
                    return True
                if s not in seen:
                    seen.add(s)
                    todo.extend(out[s])
            return False

        expected = [f"dead-end transient state '{s}' (no positive outflow)" for s in ids if not out[s]]
        expected += [f"no absorbing state reachable from stakeholder '{s}'" for s in ids if not absorbs(s)]
        assert validate(spec_of(flows, ids=ids)).violations == tuple(expected)


_EDGE_FREQUENCIES = [
    5e-324, 0.0, 1.0, 2.0, 0.75, 0.7499999999999999, 0.25, 0.2499999999999999,
    0.25000000000000006, 1e308, 8.98846567431158e307, 5.992310449541053e307,
]


@st.composite
def edge_frequency_networks(draw):
    """Networks whose rows of 1 to 12 flows, listed in any order, mix 5e-324,
    near ties and frequencies near float64's top, so that a row's total
    depends on the order it is summed in. Every row has an absorbing target;
    any network may be invalid."""
    ids = [f"s{i}" for i in range(draw(st.integers(2, 12)))]
    frequency = st.one_of(st.sampled_from(_EDGE_FREQUENCIES), st.floats(0.0, 1e308))
    flows = []
    for sid in ids:
        states = [t for t in ids if t != sid] + list(ABSORBING_ORDER)
        targets = draw(st.lists(st.sampled_from(states), min_size=1, max_size=12, unique=True))
        if not set(targets) & set(ABSORBING_ORDER):
            targets.append(draw(st.sampled_from(ABSORBING_ORDER)))
        flows += [FlowRecord(sid, t, draw(frequency)) for t in targets]
    return NetworkSpec(tuple(Stakeholder(s, "local") for s in ids), tuple(flows), ids[0])


@given(edge_frequency_networks())
@example(sum_order_spec())
def test_validate_reads_the_rows_the_raw_chain_divides(spec):
    # Each row's total is its CountVector's, summed in state order, bit for
    # bit; so every network validate accepts has a raw chain that builds.
    state_order = spec.ids + ABSORBING_ORDER
    totals = network._rows(spec)[3]
    for i, sid in enumerate(spec.ids):
        row = sorted(
            (state_order.index(f.target), f.frequency) for f in spec.flows if f.source == sid
        )
        with np.errstate(over="ignore"):  # an overflowing total is a violation
            total = CountVector([state_order[j] for j, _ in row], [f for _, f in row]).total
        assert totals[i].hex() == total.hex()
    if validate(spec).ok:
        plug_in_chain(spec, "raw")
        assert [flow_counts(spec, sid).total for sid in spec.ids] == totals.tolist()


def test_equal_specs_built_separately_hash_equal_and_share_one_plan(reference_bytes):
    # The hash is cached on the frozen spec; it must still be the hash of
    # its fields, so equal specs built apart find one compiled plan.
    a, b = parse_network(reference_bytes), parse_network(reference_bytes)
    assert a == b and a is not b
    assert hash(a) == hash(b) == hash((a.stakeholders, a.flows, a.start))
    assert _compiled(a) is _compiled(b)
    other = NetworkSpec(a.stakeholders, a.flows, "B")
    assert other != a and _compiled(other) is not _compiled(a)
    # Equal hashes alone do not make specs equal.
    colliding = NetworkSpec(a.stakeholders, a.flows[:-1], a.start)
    colliding.__dict__["_hash"] = a._hash
    assert colliding != a and a != colliding


def test_a_reparsed_spec_hits_the_cache_without_comparing_flow_records(monkeypatch):
    # A ranking looks the spec up once per sweep; an equal spec parsed
    # apart compares as plain tuples, not FlowRecord by FlowRecord.
    data = document_bytes(layered_network(50, 7))
    first = rank_details(parse_network(data), 1, 0, "plug-in")
    calls = []
    record_eq = FlowRecord.__eq__
    monkeypatch.setattr(FlowRecord, "__eq__", lambda a, b: calls.append(1) or record_eq(a, b))
    again = rank_details(parse_network(data), 1, 0, "plug-in")
    assert calls == []
    assert [(sw.stakeholder, sw.impact_ratio, sw.means.tolist()) for sw in again] == [
        (sw.stakeholder, sw.impact_ratio, sw.means.tolist()) for sw in first]


def test_ids_are_built_once_per_spec(reference_bytes):
    # A plug-in ranking reads the ids once per sweep; the frozen spec
    # builds their tuple once.
    spec = parse_network(reference_bytes)
    assert spec.ids is spec.ids
    assert spec.ids == tuple(s.id for s in spec.stakeholders) == tuple("ABCDE")


def staging_plans():
    """Every layout the engine stages, named: the whole plan and the part
    the start reaches, of the reference, wide-row and layered networks and
    of every Monte Carlo sweep layout of the reference and wide-row
    networks. Every swept reference row has a DI flow, so its layouts are
    the reference plan itself; 8 of the wide-row network's 12 swept rows
    have none, so their layouts insert a DI entry."""
    specs = {"reference": reference_network_path().read_bytes(),
             "wide-row": document_bytes(wide_row_network()),
             "layered": document_bytes(layered_network(60, 4))}
    plans = {name: _compiled(parse_network(data)) for name, data in specs.items()}
    for name in ("reference", "wide-row"):
        plan = plans[name]
        for s in range(len(plan.totals)):
            if s != plan.start:
                plans[f"{name}-sweep-{s}"] = plan.discarding(s)[0]
    for name, plan in list(plans.items()):
        plans[f"{name}-reached"] = plan.reachable[0]
    return [pytest.param(plan, id=name) for name, plan in plans.items()]


@pytest.mark.parametrize("plan", staging_plans())
def test_draws_write_exactly_the_cells_the_staged_solve_reads(plan):
    # `placement` is the plan's only layout index. _absorb divides and
    # negates its cells, in a buffer it never clears between chunks, and
    # sets Q's diagonal: each entry must have a cell of its own, none on
    # that diagonal, and plug-in rows and a fill must write those cells and
    # no other.
    n, width = len(plan.totals), len(plan.state_order)
    assert len(np.unique(plan.placement)) == len(plan.placement)
    assert not np.isin(plan.placement, np.arange(n) * (width + 1)).any()
    outside = np.ones(n * width, dtype=bool)
    outside[plan.placement] = False
    for mode in ("raw", "posterior-mean"):
        assert not _plug_in_qr(plan, mode).ravel()[outside].any()
    qr = np.full((2, n, width), np.nan)
    _fill_draws(plan, stream(5).standard_gamma(plan.alpha, size=(2, len(plan.alpha))), qr)
    for filled in qr:
        assert np.array_equal(np.flatnonzero(~np.isnan(filled)), np.sort(plan.placement))


@st.composite
def gamma_blocks(draw):
    """Two draws' rows of gammas over one layout of 1 to 4 rows, each of
    1, 2-7, 8-128 or more than 128 entries (numpy's pairwise sum changes
    path at 8 and 128), of magnitudes between 1e-300 and 1e300 and with
    exact zeros, never all zeros."""
    size = st.one_of(st.just(1), st.integers(2, 7), st.integers(8, 128), st.integers(129, 300))
    sizes = draw(st.lists(size, min_size=1, max_size=4))
    low = draw(st.integers(-300, 300))
    high = draw(st.integers(low, 300))
    zeros = draw(st.floats(0.0, 0.9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = []
    for _ in range(2):
        rows = []
        for k in sizes:
            row = 10.0 ** rng.uniform(low, high, k)
            row[rng.random(k) < zeros] = 0.0
            row[rng.integers(k)] = 10.0 ** rng.uniform(low, high)
            rows.append(row)
        blocks.append(rows)
    return blocks


@given(gamma_blocks())
def test_a_fill_normalises_each_row_as_that_row_alone(blocks):
    # A draw's row is theta = x / x.sum(), then theta / theta.sum(), of
    # that row alone, bit for bit, however many rows are filled beside it.
    sizes = [len(row) for row in blocks[0]]
    n = max(len(sizes), max(sizes))  # room for each row beside its diagonal
    source = np.repeat(np.arange(len(sizes)), sizes)
    column = np.concatenate([np.delete(np.arange(n + 3), i)[:k] for i, k in enumerate(sizes)])
    state_order = tuple(f"s{i}" for i in range(n)) + ABSORBING_ORDER
    plan = network._Plan(state_order, source, column, np.ones(len(source)), np.ones(n), 0)
    qr = np.zeros((len(blocks), n, n + 3))
    _fill_draws(plan, np.array([np.concatenate(rows) for rows in blocks]), qr)
    for filled, rows in zip(qr, blocks):
        expected = []
        for x in rows:
            theta = x / x.sum()
            expected += (theta / theta.sum()).tolist()
        written = filled.ravel()[plan.placement].tolist()
        assert [v.hex() for v in written] == [v.hex() for v in expected]


def reached_spec(spec):
    """`spec` restricted to the stakeholders its start reaches over flows of
    any frequency, in declaration order, with only their flows."""
    reached, frontier = {spec.start}, [spec.start]
    while frontier:
        sid = frontier.pop()
        for f in spec.flows:
            if f.source == sid and f.target in spec.ids and f.target not in reached:
                reached.add(f.target)
                frontier.append(f.target)
    return NetworkSpec(
        tuple(s for s in spec.stakeholders if s.id in reached),
        tuple(f for f in spec.flows if f.source in reached),
        spec.start,
    )


@pytest.mark.parametrize("network", ["reference", "wide-row", "layered", "unreached"])
def test_the_reached_plan_is_the_plan_of_the_reached_stakeholders(reference_bytes, network):
    # _Plan.reachable renumbers the reached rows' columns; it must build,
    # bit for bit, the plan compiled from those stakeholders alone, and its
    # positions must be the `alpha` entries of their rows, in order.
    spec = {
        "reference": lambda: parse_network(reference_bytes),
        "wide-row": lambda: parse_network(document_bytes(wide_row_network())),
        "layered": lambda: parse_network(document_bytes(layered_network(150, 4))),
        "unreached": unreached_spec,
    }[network]()
    staged, positions = _compiled(spec).reachable
    reached = reached_spec(spec)
    alone = _compiled(reached)
    assert staged.state_order == alone.state_order
    assert staged.start == alone.start
    assert staged.alpha.tobytes() == alone.alpha.tobytes()
    assert np.array_equal(staged.placement, alone.placement)
    for mode in ("raw", "posterior-mean"):
        assert _plug_in_qr(staged, mode).tobytes() == _plug_in_qr(alone, mode).tobytes()
    sources = sorted(spec.ids.index(f.source) for f in spec.flows)  # entries are in row order
    assert positions.tolist() == [e for e, i in enumerate(sources) if spec.ids[i] in reached.ids]
    if network == "layered":
        assert len(reached.ids) == 109


def counts_for(spec, stakeholder):
    """The counts of `stakeholder`'s row in the spec's compiled plan,
    labelled by the states of their columns."""
    plan = _compiled(spec)
    at = plan.span(spec.ids.index(stakeholder))
    return CountVector([plan.state_order[c] for c in plan.column[at]], plan.counts[at])


class TestCountsFor:
    # Each compiled row's counts are labelled by interacting state: transient
    # targets in declaration order, then DI, S, US.
    def test_reference_b(self, reference_spec):
        cv = counts_for(reference_spec, "B")
        assert cv.labels == ("D", "E", "DI")
        assert cv.counts.tolist() == [30.0, 20.0, 10.0]

    def test_reference_c(self, reference_spec):
        cv = counts_for(reference_spec, "C")
        assert cv.labels == ("E", "DI")
        assert cv.counts.tolist() == [35.0, 5.0]

    def test_single_flow(self):
        spec = spec_of([("A", "S", 7.0)], ids=["A"])
        cv = counts_for(spec, "A")
        assert cv.labels == ("S",)
        assert cv.counts.tolist() == [7.0]

    def test_label_order_follows_declaration_not_flow_order(self):
        # E declared after D, so D comes first even though its flow is listed last.
        spec = NetworkSpec(
            (Stakeholder("A", "federal"), Stakeholder("D", "local"), Stakeholder("E", "local")),
            (
                FlowRecord("A", "DI", 1.0),
                FlowRecord("A", "E", 2.0),
                FlowRecord("A", "D", 3.0),
                FlowRecord("D", "S", 1.0),
                FlowRecord("E", "S", 1.0),
            ),
            "A",
        )
        assert counts_for(spec, "A").labels == ("D", "E", "DI")
        assert counts_for(spec, "A").counts.tolist() == [3.0, 2.0, 1.0]


class TestPlugInChain:
    def test_raw_row_b(self, reference_spec):
        tm = plug_in_chain(reference_spec, "raw")
        i = tm.state_order.index("B")
        assert tm.q[i, tm.state_order.index("D")] == pytest.approx(0.5)
        assert tm.q[i, tm.state_order.index("E")] == pytest.approx(1 / 3)
        assert tm.r[i, 0] == pytest.approx(1 / 6)  # DI column

    def test_posterior_mean_row_b(self, reference_spec):
        tm = plug_in_chain(reference_spec, "posterior-mean")
        i = tm.state_order.index("B")
        assert tm.q[i, tm.state_order.index("D")] == pytest.approx(31 / 63)
        assert tm.q[i, tm.state_order.index("E")] == pytest.approx(21 / 63)
        assert tm.r[i, 0] == pytest.approx(11 / 63)

    @pytest.mark.parametrize("network", ["reference", "wide_row", "layered"])
    def test_rows_are_counts_over_total_and_renormalised_posterior_means(
        self, request, network
    ):
        # Bit for bit: raw rows are counts / total; posterior-mean rows are
        # theta / theta.sum() for theta = alpha / alpha.sum().
        if network == "layered":
            spec = parse_network(document_bytes(layered_network(60, 4)))
        else:
            spec = request.getfixturevalue(f"{network}_spec")
        plan = _compiled(spec)
        raw, mean = _plug_in_qr(plan, "raw"), _plug_in_qr(plan, "posterior-mean")
        for i in range(len(plan.totals)):
            row = flow_counts(spec, spec.ids[i])
            cols, alpha = plan.column[plan.span(i)], plan.alpha[plan.span(i)]
            assert alpha.tobytes() == noninformative_posterior(row).alpha.tobytes()
            want_raw, want_mean = np.zeros(len(plan.state_order)), np.zeros(len(plan.state_order))
            want_raw[cols] = row.counts / row.total
            theta = alpha / alpha.sum()
            want_mean[cols] = theta / theta.sum()
            np.testing.assert_array_equal(raw[i], want_raw)
            np.testing.assert_array_equal(mean[i], want_mean)

    @pytest.mark.parametrize("mode", ["raw-frequency", "bogus"])
    def test_only_the_cli_modes_are_accepted(self, reference_spec, mode):
        with pytest.raises(ValueError, match="unknown plug-in mode"):
            plug_in_chain(reference_spec, mode)

    def test_raw_absorption_from_start(self, reference_spec):
        # Closed-form check: with flow-conserving frequencies the raw chain
        # delivers exactly (satisfied outflow of D + of E) / 100.
        row = absorption_probabilities(plug_in_chain(reference_spec, "raw")).row("A")
        np.testing.assert_allclose(row, [0.30, 0.50, 0.20], atol=1e-12)
        np.testing.assert_allclose(row, enumerate_paths_absorption(reference_spec), atol=1e-12)

    def test_state_order_is_declaration_plus_absorbing(self, reference_spec):
        tm = plug_in_chain(reference_spec, "raw")
        assert tm.state_order == ("A", "B", "C", "D", "E", "DI", "S", "US")

    def test_raw_approaches_posterior_mean_under_scaling(self, reference_spec):
        scaled = NetworkSpec(
            reference_spec.stakeholders,
            tuple(FlowRecord(f.source, f.target, f.frequency * 1e6)
                  for f in reference_spec.flows),
            reference_spec.start,
        )
        raw = plug_in_chain(scaled, "raw")
        post = plug_in_chain(scaled, "posterior-mean")
        np.testing.assert_allclose(raw.q, post.q, atol=1e-5)
        np.testing.assert_allclose(raw.r, post.r, atol=1e-5)

    def test_invalid_spec_raises_validation_error(self):
        spec = spec_of([("A", "X", 5.0)], ids=["A", "X"])
        with pytest.raises(ValidationError):
            plug_in_chain(spec, "raw")

    def test_unknown_mode_rejected(self, reference_spec):
        with pytest.raises(ValueError):
            plug_in_chain(reference_spec, "magic")

    def test_bidirectional_flow_produces_cyclic_chain(self):
        spec = spec_of(
            [("X", "Y", 4.0), ("Y", "X", 2.0), ("X", "DI", 1.0), ("Y", "S", 3.0)],
            ids=["X", "Y"],
        )
        tm = plug_in_chain(spec, "raw")
        assert tm.q[0, 1] > 0 and tm.q[1, 0] > 0
        b = absorption_probabilities(tm).b
        np.testing.assert_allclose(b.sum(axis=1), 1.0, atol=1e-12)


class TestSampledChain:
    def test_deterministic_given_seed(self, reference_spec):
        a = sampled_chain(reference_spec, np.random.default_rng(9))
        b = sampled_chain(reference_spec, np.random.default_rng(9))
        assert np.array_equal(a.q, b.q) and np.array_equal(a.r, b.r)

    def test_single_interacting_state_is_degenerate(self):
        spec = spec_of([("A", "S", 5.0)], ids=["A"])
        for seed in range(20):
            tm = sampled_chain(spec, np.random.default_rng(seed))
            assert tm.r[0, 1] == 1.0

    def test_rows_sum_to_one_over_many_draws(self, reference_spec):
        rng = stream(123)
        for _ in range(10_000):
            tm = sampled_chain(reference_spec, rng)
            sums = tm.q.sum(axis=1) + tm.r.sum(axis=1)
            assert np.max(np.abs(sums - 1.0)) <= 1e-9

    @staticmethod
    def assert_rows_are_dirichlet_draws(spec, seed):
        # Independent of the engine: one dirichlet_sample per stakeholder, in
        # declaration order, from the same stream, assembled by the public
        # build_canonical (which renormalises each row once more), gives the
        # same chain bit for bit.
        tm = sampled_chain(spec, stream(seed))
        rng = stream(seed)
        n = len(spec.ids)
        qr = np.zeros((n, n + len(ABSORBING_ORDER)))
        for i, sid in enumerate(spec.ids):
            cv = flow_counts(spec, sid)
            theta = dirichlet_sample(noninformative_posterior(cv), rng)
            for label, p in zip(cv.labels, theta):
                qr[i, tm.state_order.index(label)] = p
        want = build_canonical(qr[:, :n], qr[:, n:], tm.state_order)
        assert np.array_equal(tm.q, want.q) and np.array_equal(tm.r, want.r)

    def test_rows_are_dirichlet_draws_in_declaration_order(self, reference_spec):
        self.assert_rows_are_dirichlet_draws(reference_spec, 5)

    @pytest.mark.parametrize("seed", [5, 6, -7])
    def test_wide_rows_are_dirichlet_draws(self, wide_row_spec, seed):
        # Rows of 8, 9 and 12 targets: a sum that is not numpy's pairwise sum
        # of the row alone rounds differently here.
        assert {len(flow_counts(wide_row_spec, s)) for s in wide_row_spec.ids} == {3, 8, 9, 12}
        self.assert_rows_are_dirichlet_draws(wide_row_spec, seed)
