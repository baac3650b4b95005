"""The paper's shape claims, asserted at a fixed size.

One test per figure / table / ablation: each regenerates the experiment
through :mod:`repro.experiments` and asserts the qualitative finding the
paper reports (who wins, what saturates, which bound holds), with the
numeric thresholds this reproduction has always used.  The size is fixed
at 60 queries over 1 500 objects so the whole file runs in a few seconds;
Figure 10 is additionally checked at 250 / 4 000, where it is a known,
documented deviation (``docs/replacement-policies.md``).
"""

import statistics

import pytest

from repro.core.items import CachedIndexNode, CachedObject
from repro.experiments import fig6, fig7, fig8, fig9, fig10, fig11, overheads, table61
from repro.sim.config import SimulationConfig
from repro.sim.fleet import default_fleet, run_comparison, run_fleet
from repro.sim.runner import build_shared_state, generate_trace
from repro.sim.sessions import ProactiveSession
from repro.workload.generator import QueryMix


CONFIG = SimulationConfig.scaled(query_count=60, object_count=1_500)
FLEET_CLIENTS, FLEET_QUERIES = 8, 40


def test_table61_parameters():
    """Table 6.1 regenerates for the paper's and this run's configuration."""
    tables = table61.run(CONFIG)
    output = table61.render(tables)
    assert "Area_wnd" in output
    assert set(tables) == {"paper", "this run"}


def test_fig6_overall_comparison():
    """Figure 6 — PAG vs SEM vs APRO (DIR, |C| = 1%).

    PAG's cache hit rate is zero and APRO's the highest; SEM downloads the
    most bytes per query; APRO responds fastest, with a downlink within a
    modest factor of PAG's (the paper reports "slightly larger").
    """
    summaries = fig6.run(CONFIG.with_overrides(mobility_model="DIR",
                                               cache_fraction=0.01))
    pag, sem, apro = summaries["PAG"], summaries["SEM"], summaries["APRO"]
    assert pag["cache_hit_rate"] == 0.0
    assert apro["cache_hit_rate"] > sem["cache_hit_rate"]
    assert sem["downlink_bytes"] >= apro["downlink_bytes"]
    assert apro["response_time"] <= min(pag["response_time"], sem["response_time"])
    assert apro["downlink_bytes"] <= 3.0 * pag["downlink_bytes"]


def test_fig7_mobility_models():
    """Figure 7 — response time and false miss rate under RAN vs DIR."""
    results = fig7.run(CONFIG)
    ran, dir_ = results["RAN"], results["DIR"]
    # APRO degrades least in absolute terms when moving from RAN to DIR.
    degradations = {model: dir_[model]["response_time"] - ran[model]["response_time"]
                    for model in ("PAG", "SEM", "APRO")}
    assert degradations["APRO"] <= max(degradations.values())
    # Figure 7(b): APRO's fmr is much lower than SEM's under both models.
    for mobility in ("RAN", "DIR"):
        assert results[mobility]["APRO"]["false_miss_rate"] < results[mobility]["SEM"]["false_miss_rate"]
    # APRO's fmr is nearly mobility-independent (within 0.2 absolute).
    assert abs(ran["APRO"]["false_miss_rate"] - dir_["APRO"]["false_miss_rate"]) < 0.2


def test_fig8_cache_size_sweep():
    """Figure 8 — response time vs cache size (0.1%, 0.5%, 1%, 5%; RAN).

    APRO keeps improving beyond |C| = 1% while SEM saturates, and at the
    largest cache size APRO is the fastest model.
    """
    results = fig8.run(CONFIG)
    fractions = sorted(results)
    smallest, largest = fractions[0], fractions[-1]
    mid = 0.01 if 0.01 in results else fractions[len(fractions) // 2]

    apro = {f: results[f]["APRO"]["response_time"] for f in fractions}
    # APRO keeps gaining from the mid cache size to the largest one.
    assert apro[largest] < apro[mid]
    # APRO benefits from a larger cache overall.
    assert apro[largest] < apro[smallest]
    # At the largest cache size APRO beats both baselines.
    assert apro[largest] <= results[largest]["PAG"]["response_time"]
    assert apro[largest] <= results[largest]["SEM"]["response_time"]
    # APRO's gain beyond 1% exceeds SEM's (SEM saturates).
    sem = {f: results[f]["SEM"]["response_time"] for f in fractions}
    assert (apro[mid] - apro[largest]) >= (sem[mid] - sem[largest]) - 1e-9


def test_fig9_cpu_cost():
    """Figure 9 — client CPU time per query vs cache size (RAN)."""
    results = fig9.run(CONFIG)
    fractions = sorted(results)
    largest = fractions[-1]
    apro_cpu = {f: results[f]["APRO"]["client_cpu_ms"] for f in fractions}
    pag_cpu = {f: results[f]["PAG"]["client_cpu_ms"] for f in fractions}

    # APRO does more client-side work than PAG.
    assert apro_cpu[largest] > pag_cpu[largest]
    # CPU stays orders of magnitude below the communication-dominated
    # response time (milliseconds vs hundreds of milliseconds).
    for fraction in fractions:
        for model in ("PAG", "SEM", "APRO"):
            cpu_seconds = results[fraction][model]["client_cpu_ms"] / 1000.0
            assert cpu_seconds < results[fraction][model]["response_time"] or \
                results[fraction][model]["response_time"] == 0.0


def _assert_fig10_claims(config):
    results = fig10.run(config, ("LRU", "FAR", "GRD3", "MRU"), ("RAN", "DIR"))
    policies = ("LRU", "FAR", "GRD3")
    # MRU is the worst policy on average across mobility models (the paper
    # drops it from the figure for exactly this reason).
    mru_mean = sum(results[mob]["MRU"]["response_time"] for mob in results) / len(results)
    for policy in policies:
        mean = sum(results[mob][policy]["response_time"] for mob in results) / len(results)
        assert mru_mean >= mean - 1e-9
    # Under RAN (good locality) the history-based policies FAR and GRD3 are
    # competitive: GRD3 stays within 25% of the best policy.
    ran_best = min(results["RAN"][policy]["response_time"] for policy in policies)
    assert results["RAN"]["GRD3"]["response_time"] <= 1.25 * ran_best
    # GRD3 beats MRU under every mobility model.
    for mobility in results:
        assert results[mobility]["GRD3"]["response_time"] <= \
            results[mobility]["MRU"]["response_time"] + 1e-9


def test_fig10_replacement_schemes():
    """Figure 10 — APRO under LRU, FAR and GRD3 replacement (RAN and DIR)."""
    _assert_fig10_claims(CONFIG)


@pytest.mark.xfail(strict=True, reason=(
    "known deviation at 250 queries / 4000 objects: under RAN GRD3 responds "
    "in 0.2151 s vs FAR's 0.1720 s (1.2502x against the 1.25x bound), and "
    "GRD3 is also the slowest of LRU/FAR/GRD3 under DIR.  Measured cause: "
    "scaled() makes one result window_area / cache_fraction = 0.2 of the "
    "cache (1e-4 at Table 6.1, where the three tie within 2 %); at ratio "
    "0.02 GRD3 is best or tied under RAN — see "
    "docs/replacement-policies.md"))
def test_fig10_replacement_schemes_at_default_scale():
    _assert_fig10_claims(SimulationConfig.scaled(query_count=250,
                                                 object_count=4_000))


def _mean(values):
    values = [v for v in values if v == v]
    return sum(values) / len(values) if values else 0.0


def test_fig11_adaptive_schemes():
    """Figure 11 — FPRO vs CPRO vs APRO under the k-ramp workload (kNN only).

    In the paper APRO also edges out FPRO on response time; at the scaled
    dataset size the index is so cheap relative to the 10 KB objects that
    FPRO's full-form caching costs almost nothing, so FPRO can win on raw
    response time here.  The asserted ordering is therefore
    CPRO >= APRO >= FPRO on fmr, FPRO >= APRO >= CPRO on index share, and
    APRO <= CPRO on response time.
    """
    series = fig11.run(CONFIG)
    fpro, cpro, apro = series["FPRO"], series["CPRO"], series["APRO"]
    # 11(b): FPRO ships/keeps the most index, CPRO the least.
    assert _mean(fpro["index_fraction"]) >= _mean(apro["index_fraction"]) - 1e-9
    assert _mean(apro["index_fraction"]) >= _mean(cpro["index_fraction"]) - 1e-9
    # 11(a): CPRO's false miss rate is the worst, FPRO's the best, APRO between.
    assert _mean(cpro["false_miss_rate"]) >= _mean(apro["false_miss_rate"]) - 1e-9
    assert _mean(apro["false_miss_rate"]) >= _mean(fpro["false_miss_rate"]) - 1e-9
    # 11(c): the adaptive scheme improves on the normal compact form and stays
    # within a modest factor of the best scheme.
    assert _mean(apro["response_time"]) <= _mean(cpro["response_time"]) + 1e-9
    best = min(_mean(fpro["response_time"]), _mean(cpro["response_time"]),
               _mean(apro["response_time"]))
    assert _mean(apro["response_time"]) <= 1.5 * best


def test_partition_tree_overheads():
    """Section 6.4 — partition-tree storage and server CPU time.

    The binary partition trees cost at most 2x the R-tree index size (the
    paper's analytical bound), and APRO's server CPU per query stays within
    a small factor of FPRO's.
    """
    values = overheads.run(CONFIG)
    assert values["partition_tree_bytes"] <= 2.0 * values["index_bytes"]
    assert values["partition_tree_bytes"] > 0
    assert values["server_cpu_ms_apro"] <= 3.0 * max(values["server_cpu_ms_fpro"], 1e-6)


def test_ablation_grd_family():
    """GRD1 (unconstrained), GRD2 (EBRS greedy) and GRD3 end to end."""
    config = CONFIG.with_overrides(cache_fraction=0.005)
    summaries = {policy: run_comparison(config, ("APRO",),
                                        replacement_policy=policy)["APRO"].summary()
                 for policy in ("GRD1", "GRD2", "GRD3")}
    grd2, grd3 = summaries["GRD2"], summaries["GRD3"]
    # GRD3 and GRD2 pick the same victims, so end-to-end metrics match closely.
    assert abs(grd2["cache_hit_rate"] - grd3["cache_hit_rate"]) < 0.1
    # All GRD variants achieve a usable hit rate at this cache size.
    for summary in summaries.values():
        assert summary["cache_hit_rate"] > 0.0


def test_ablation_knn_remainder_pruning():
    """Example 3.1 — the client prunes the kNN frontier before shipping it.

    Frontier entries beyond the current k-th leaf entry are dropped from the
    remainder query; the shipped frontier stays on the order of k plus a few
    nodes, never the whole priority queue.
    """
    config = CONFIG.with_overrides(
        query_mix=QueryMix(range_=0.0, knn=1.0, join=0.0), k_max=8)
    environment = build_shared_state(config)
    session = ProactiveSession(environment.tree, config, server=environment.server)
    frontier_sizes = []
    for record in generate_trace(config):
        session.cache.tick()
        execution = session.client.execute(record.query)
        if not execution.complete:
            frontier_sizes.append(len(execution.frontier))
            response = environment.server.execute(
                record.query, execution.remainder(), session.policy)
            context = {"client_position": record.position}
            for snap in response.index_snapshots:
                session.cache.insert_node_snapshot(
                    CachedIndexNode(snap.node_id, snap.level,
                                    {e.code: e for e in snap.elements}),
                    snap.parent_id, context)
            for delivery in response.deliveries:
                session.cache.insert_object(
                    CachedObject(delivery.record.object_id, delivery.record.mbr,
                                 delivery.record.size_bytes),
                    delivery.parent_node_id, context)
    mean_size = statistics.mean(frontier_sizes) if frontier_sizes else 0.0
    assert mean_size < 6 * config.k_max


def test_fleet_simulation():
    """A heterogeneous three-group fleet against one shared server.

    Every client's queries are all answered, groups really are heterogeneous
    (the fast small-cache vehicles hit the server more often than the slow
    large-cache hotspot users), and the shared server sees the sum of all
    per-client traffic.
    """
    fleet = default_fleet(FLEET_CLIENTS,
                          base=CONFIG.with_overrides(query_count=FLEET_QUERIES))
    result = run_fleet(fleet)

    assert len(result.clients) == FLEET_CLIENTS
    load = result.server_load()
    assert load.total_queries == FLEET_CLIENTS * FLEET_QUERIES
    assert load.duration_seconds > 0
    assert load.queries_per_second > 0

    groups = result.group_summary()
    assert set(groups) == {"pedestrians", "vehicles", "hotspot"}
    assert groups["vehicles"]["server_contact_rate"] >= \
        groups["hotspot"]["server_contact_rate"]
    assert sum(int(summary["queries"]) for summary in groups.values()) == \
        load.total_queries
