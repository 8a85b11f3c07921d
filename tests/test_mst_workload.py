"""The MST workload's correctness spine: every result oracle-gated.

The distributed MST runner and the sequential Kruskal oracle share the
``(weight, edge index)`` total order, under which the minimum spanning
forest is *unique* -- so the gate is exact edge-set AND byte-exact
weight equality, never a tolerance, on every registered graph family
and both recipes:

- **unique-weight instances** (``weights="random"``: i.i.d. uniform
  draws, distinct with probability 1): exact forest + weight equality
  against Kruskal and Boruvka;
- **tie-prone instances** (``weights="tie-prone"``: draws quantized to
  multiples of 1/8, exactly representable so partial sums are
  order-independent): the deliberately different ``tie_break="reverse"``
  Kruskal oracle may pick a different forest, but total weight equality
  must still be byte-exact -- the tie-robust invariant;
- **round bills**: ledger totals equal the closed forms in
  :mod:`repro.core.rounds` and land only in the recipe's registered
  ledger categories.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import MSTRequest, Session, preset_config, response_from_dict
from repro.core.mst import resolve_weights, run_mst
from repro.core.rounds import mst_kkt_rounds, mst_node_cc_rounds
from repro.core.workloads import get_workload
from repro.errors import ConfigError
from repro.graphs.families import build_family, family_names
from repro.walks.sequential import boruvka_forest, forest_weight, kruskal_forest

MST = get_workload("mst")
FAMILY_CELLS = [
    pytest.param(family, recipe, id=f"{family}-{recipe}")
    for family in family_names()
    for recipe in MST.recipe_names()
]


def small_graph(family: str, n: int = 12):
    graph, meta = build_family(family, n, np.random.default_rng(0))
    return graph, meta


class TestOracleGate:
    @pytest.mark.parametrize("family,recipe", FAMILY_CELLS)
    def test_distributed_equals_kruskal_on_unique_weights(
        self, family, recipe
    ):
        """Unique weights: exact forest and byte-exact weight equality."""
        graph, _ = small_graph(family)
        weights = resolve_weights(graph, "random", 7)
        assert len(set(weights.tolist())) == len(weights)  # unique w.p. 1
        result = run_mst(
            graph, recipe=MST.get_recipe(recipe), weights=weights
        )
        forest, weight = kruskal_forest(graph, weights)
        assert result.forest == forest
        assert result.total_weight == weight  # byte-exact, not approx

    @pytest.mark.parametrize("family,recipe", FAMILY_CELLS)
    def test_tie_prone_instances_keep_weight_equality(self, family, recipe):
        """Ties: any valid tie-break agrees on weight, byte-exactly.

        The shared-order Kruskal oracle must still match edge-for-edge;
        the reverse-tie-break oracle is a *different* valid MSF whose
        total weight must nevertheless be byte-equal (quantized weights
        sum order-independently).
        """
        graph, _ = small_graph(family)
        weights = resolve_weights(graph, "tie-prone", 7)
        assert len(set(weights.tolist())) < len(weights), (
            "tie-prone instances must actually tie"
        )
        result = run_mst(
            graph, recipe=MST.get_recipe(recipe), weights=weights
        )
        forest, weight = kruskal_forest(graph, weights)
        assert result.forest == forest and result.total_weight == weight
        reverse_forest, reverse_weight = kruskal_forest(
            graph, weights, tie_break="reverse"
        )
        assert result.total_weight == reverse_weight
        if reverse_forest != result.forest:
            # The interesting case: different forests, equal weight.
            assert forest_weight(weights, [
                i for i, _ in enumerate(graph.edges())
                if (min(*graph.edges()[i]), max(*graph.edges()[i]))
                in reverse_forest
            ]) == result.total_weight

    @pytest.mark.parametrize("family", family_names())
    def test_boruvka_oracle_agrees_with_kruskal(self, family):
        graph, _ = small_graph(family)
        for mode in ("random", "tie-prone", "graph"):
            weights = resolve_weights(graph, mode, 3)
            k_forest, k_weight = kruskal_forest(graph, weights)
            b_forest, b_weight, phases = boruvka_forest(graph, weights)
            assert b_forest == k_forest
            assert b_weight == k_weight
            assert 1 <= phases <= max(1, int(np.ceil(np.log2(graph.n))))

    def test_oracle_rejects_malformed_weights(self):
        graph, _ = small_graph("cycle")
        from repro.errors import WalkError

        with pytest.raises(WalkError, match="one weight per edge"):
            kruskal_forest(graph, [1.0, 2.0])
        with pytest.raises(WalkError, match="finite"):
            kruskal_forest(graph, [float("nan")] * len(graph.edges()))
        with pytest.raises(WalkError, match="tie_break"):
            kruskal_forest(
                graph, resolve_weights(graph, "random", 0), tie_break="x"
            )


class TestRoundBills:
    @pytest.mark.parametrize("family", ("gnp", "cycle", "complete"))
    def test_kkt_ledger_matches_closed_form(self, family):
        graph, _ = small_graph(family, 16)
        weights = resolve_weights(graph, "random", 1)
        result = run_mst(
            graph, recipe=MST.get_recipe("kkt-o1"), weights=weights
        )
        assert result.rounds == result.ledger.total_rounds()
        assert result.rounds == mst_kkt_rounds(graph.n, len(graph.edges()))
        assert set(result.ledger.rounds_by_category()) <= set(
            MST.get_recipe("kkt-o1").categories
        )

    @pytest.mark.parametrize("family", ("gnp", "cycle", "complete"))
    def test_node_cc_ledger_matches_closed_form(self, family):
        graph, _ = small_graph(family, 16)
        weights = resolve_weights(graph, "random", 1)
        result = run_mst(
            graph, recipe=MST.get_recipe("node-cc-msf"), weights=weights
        )
        assert result.rounds == result.ledger.total_rounds()
        assert result.rounds == mst_node_cc_rounds(graph.n, result.phases)
        assert set(result.ledger.rounds_by_category()) <= set(
            MST.get_recipe("node-cc-msf").categories
        )

    def test_unimplemented_recipe_fails_loudly(self):
        from repro.core.workloads import WorkloadRecipe

        graph, _ = small_graph("cycle")
        ghost = WorkloadRecipe(
            name="ghost", description="", paper_ref="", comm_model="unicast",
            rounds_formula="O(1)",
        )
        with pytest.raises(ConfigError, match="no registered billing"):
            run_mst(
                graph, recipe=ghost,
                weights=resolve_weights(graph, "random", 0),
            )


class TestSessionGate:
    def session(self, family="gnp", n=24):
        graph, meta = small_graph(family, n)
        config = preset_config("fast-bench")
        return Session(graph, config, seed=0, meta=meta)

    def test_report_carries_the_oracle_verdict(self):
        response = self.session().run(MSTRequest(seed=7))
        report = response.result
        assert report.oracle == "kruskal"
        assert report.oracle_match is True
        assert report.oracle_weight == report.total_weight
        assert len(report.forest) == response.meta["n"] - 1
        assert response.meta["comm_model"] == "unicast"

    def test_pinned_seed_is_session_history_invariant(self):
        fresh = self.session().run(MSTRequest(seed=5)).result
        busy = self.session()
        busy.run(MSTRequest(seed=1))
        busy.run(MSTRequest(weights="tie-prone"))  # lineage consumer
        assert busy.run(MSTRequest(seed=5)).result == fresh

    def test_stream_equals_run(self):
        batch = self.session().run(MSTRequest(seed=7)).result
        stats: dict = {}
        streamed = list(
            self.session().stream(MSTRequest(seed=7), stats=stats)
        )
        assert streamed == [batch]
        assert stats["degraded"] is False

    def test_wire_round_trip_is_lossless(self):
        response = self.session().run(
            MSTRequest(recipe="node-cc-msf", weights="tie-prone", seed=3)
        )
        rebuilt = response_from_dict(json.loads(response.to_json()))
        assert rebuilt.result == response.result
        assert rebuilt.result.rounds_by_category() == (
            response.result.rounds_by_category()
        )


class TestCLI:
    def test_mst_json_smoke(self, capsys):
        from repro.cli import main

        assert main([
            "mst", "--family", "gnp", "--n", "16", "--seed", "7", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result_type"] == "MSTReport"
        assert payload["result"]["oracle_match"] is True

    def test_mst_human_rendering_names_the_oracle(self, capsys):
        from repro.cli import main

        assert main([
            "mst", "--family", "cycle", "--n", "8",
            "--recipe", "node-cc-msf", "--weights", "tie-prone",
        ]) == 0
        out = capsys.readouterr().out
        assert "oracle (kruskal)" in out
        assert "match: yes" in out
        assert "node-congested-clique" in out
