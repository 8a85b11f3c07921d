"""Tests for the command-line interface."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import FAMILIES, build_graph, main
from repro.errors import ReproError


class TestBuildGraph:
    def test_every_family_instantiates_connected(self, rng):
        for name in FAMILIES:
            g = build_graph(name, 16, rng)
            assert g.is_connected(), name
            assert g.n >= 8, name

    def test_unknown_family(self, rng):
        with pytest.raises(ReproError):
            build_graph("hypercube", 16, rng)


class TestSampleCommand:
    @pytest.mark.parametrize("variant", ["approximate", "exact", "fastcover"])
    def test_sample_runs(self, capsys, variant):
        code = main([
            "sample", "--family", "complete", "--n", "8",
            "--variant", variant, "--seed", "1", "--ell", "1024",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "rounds" in out
        assert "tree" in out

    def test_json_output_parses(self, capsys):
        code = main([
            "sample", "--family", "cycle", "--n", "6", "--json",
            "--ell", "1024",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "sample"
        assert payload["meta"]["n"] == 6
        assert len(payload["result"]["tree"]) == 5

    def test_json_envelope_loads_as_typed_response(self, capsys):
        from repro.api import response_from_dict

        main(["sample", "--family", "cycle", "--n", "6", "--json",
              "--ell", "1024", "--seed", "3"])
        response = response_from_dict(json.loads(capsys.readouterr().out))
        assert response.kind == "sample"
        assert response.result.rounds > 0
        assert len(response.result.tree) == 5

    def test_json_golden(self, capsys):
        """Golden test: the --json envelope for a pinned seed/instance.

        Regenerated once for the v2 RNG contract (see tests/README.md);
        the v1 bit stream remains pinned via --rng-contract v1 below.
        """
        code = main([
            "sample", "--family", "cycle", "--n", "6", "--json",
            "--seed", "0", "--ell", "1024",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "sample"
        assert payload["result_type"] == "SampleResult"
        for key, value in {
            "family": "cycle", "requested_n": 6, "n": 6,
            "size_adjusted": False, "variant": "approximate", "seed": 0,
            "rng_contract": "v2",
        }.items():
            assert payload["meta"][key] == value, key
        assert payload["result"]["tree"] == [
            [0, 5], [1, 2], [2, 3], [3, 4], [4, 5]
        ]
        assert payload["result"]["rounds"] == 1110
        assert payload["result"]["phases"] == 5

    def test_json_golden_v1_contract(self, capsys):
        """The pre-v2 bit stream stays reachable: --rng-contract v1
        reproduces the exact envelope pinned before the contract change."""
        code = main([
            "sample", "--family", "cycle", "--n", "6", "--json",
            "--seed", "0", "--ell", "1024", "--rng-contract", "v1",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["meta"]["rng_contract"] == "v1"
        assert payload["result"]["tree"] == [
            [0, 5], [1, 2], [2, 3], [3, 4], [4, 5]
        ]
        assert payload["result"]["rounds"] == 1111
        assert payload["result"]["phases"] == 5

    def test_deterministic_given_seed(self, capsys):
        argv = ["sample", "--family", "wheel", "--n", "8", "--json",
                "--seed", "9", "--ell", "1024"]
        main(argv)
        first = json.loads(capsys.readouterr().out)
        main(argv)
        second = json.loads(capsys.readouterr().out)
        # Identical modulo wall-clock timing, which is honest about time.
        first["meta"].pop("seconds")
        second["meta"].pop("seconds")
        assert first == second


class TestRoundsCommand:
    def test_prints_comparison(self, capsys):
        code = main(["rounds", "--family", "complete", "--n", "9",
                     "--ell", "1024"])
        assert code == 0
        out = capsys.readouterr().out
        assert "approximate" in out
        assert "exact" in out
        assert "fastcover" in out


class TestPageRankCommand:
    def test_prints_error_and_top_vertices(self, capsys):
        code = main(["pagerank", "--family", "wheel", "--n", "12",
                     "--walks", "16"])
        assert code == 0
        out = capsys.readouterr().out
        assert "L1 error" in out
        assert "vertex" in out


class TestAuditCommand:
    def test_uniform_verdict_on_cycle(self, capsys):
        code = main(["audit", "--family", "cycle", "--n", "6",
                     "--samples", "400", "--ell", "1024"])
        assert code == 0
        out = capsys.readouterr().out
        assert "UNIFORM" in out

    def test_refuses_huge_tree_counts(self, capsys):
        code = main(["audit", "--family", "complete", "--n", "16"])
        assert code == 2
        assert "smaller instance" in capsys.readouterr().err


class TestFamiliesCommand:
    def test_lists_all(self, capsys):
        assert main(["families"]) == 0
        out = capsys.readouterr().out.split()
        assert sorted(out) == sorted(FAMILIES)

    def test_json_registry(self, capsys):
        """families --json exposes the registry's machine-readable form."""
        assert main(["families", "--json"]) == 0
        catalog = json.loads(capsys.readouterr().out)
        assert sorted(row["name"] for row in catalog) == sorted(FAMILIES)
        by_name = {row["name"]: row for row in catalog}
        assert by_name["expander"]["randomized"] is True
        assert "even" in by_name["expander"]["size_rule"]
        for row in catalog:
            assert row["description"], row["name"]


class TestVersionFlag:
    def test_version_prints_and_exits(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        import repro

        assert repro.__version__ in out


class TestExpanderSizeAdjustment:
    """Regression: odd expander sizes must be surfaced, never silent."""

    def test_odd_n_surfaced_in_json_meta(self, capsys):
        code = main(["sample", "--family", "expander", "--n", "9",
                     "--json", "--ell", "1024"])
        assert code == 0
        meta = json.loads(capsys.readouterr().out)["meta"]
        assert meta["requested_n"] == 9
        assert meta["n"] == 10
        assert meta["size_adjusted"] is True

    def test_odd_n_noted_in_human_output(self, capsys):
        code = main(["sample", "--family", "expander", "--n", "9",
                     "--ell", "1024"])
        assert code == 0
        out = capsys.readouterr().out
        assert "adjusted n 9 -> 10" in out
        assert "n=10" in out

    def test_even_n_not_flagged(self, capsys):
        code = main(["sample", "--family", "expander", "--n", "8",
                     "--json", "--ell", "1024"])
        assert code == 0
        meta = json.loads(capsys.readouterr().out)["meta"]
        assert meta["size_adjusted"] is False


class TestCacheDirFlag:
    def test_sample_with_cache_dir_warm_restart(self, capsys, tmp_path):
        argv = ["sample", "--family", "cycle", "--n", "8", "--json",
                "--seed", "2", "--ell", "512",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cold["meta"]["cache"]["spills"] > 0
        assert main(argv) == 0
        warm = json.loads(capsys.readouterr().out)
        # Fresh process-equivalent: everything served from the disk tier.
        assert warm["meta"]["cache"]["disk_hits"] > 0
        assert warm["meta"]["cache"]["misses"] == 0
        assert warm["result"]["tree"] == cold["result"]["tree"]
        assert warm["result"]["rounds"] == cold["result"]["rounds"]

    def test_ensemble_json_envelope_has_cache_stats(self, capsys, tmp_path):
        assert main([
            "ensemble", "--family", "cycle", "--n", "8", "--samples", "3",
            "--jobs", "1", "--json", "--ell", "512", "--seed", "1",
            "--cache-dir", str(tmp_path),
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        cache = payload["meta"]["cache"]
        assert cache["spills"] > 0
        assert cache["disk_entries"] > 0

    def test_human_rendering_prints_cache_line(self, capsys, tmp_path):
        assert main([
            "sample", "--family", "cycle", "--n", "8", "--seed", "2",
            "--ell", "512", "--cache-dir", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "cache:" in out
        assert "spills" in out


class TestPlacementModeFlag:
    def test_rejects_unknown_mode(self, capsys):
        """``--placement-mode`` is retired: argparse rejects the flag
        with exit status 2 whatever its value."""
        for value in ("reference", "batched"):
            with pytest.raises(SystemExit) as excinfo:
                main(["sample", "--family", "cycle", "--n", "6",
                      "--placement-mode", value])
            assert excinfo.value.code == 2
        assert "--placement-mode" in capsys.readouterr().err


class TestRngContractFlag:
    def test_meta_carries_default_contract(self, capsys):
        assert main(["sample", "--family", "cycle", "--n", "6", "--json",
                     "--ell", "1024"]) == 0
        meta = json.loads(capsys.readouterr().out)["meta"]
        assert meta["rng_contract"] == "v2"

    def test_rejects_unknown_contract(self, capsys):
        with pytest.raises(SystemExit):
            main(["sample", "--family", "cycle", "--n", "6",
                  "--rng-contract", "v3"])


class TestCacheCommand:
    def _populate(self, cache_dir) -> None:
        assert main([
            "sample", "--family", "cycle", "--n", "8", "--seed", "2",
            "--ell", "512", "--cache-dir", str(cache_dir), "--json",
        ]) == 0

    def test_stats_on_populated_dir(self, capsys, tmp_path):
        self._populate(tmp_path)
        capsys.readouterr()
        assert main(["cache", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert f"derived-graph cache at {tmp_path}" in out
        assert "entries:" in out
        assert "calibration profile: absent" in out

    def test_stats_json_golden_shape(self, capsys, tmp_path):
        self._populate(tmp_path)
        capsys.readouterr()
        assert main(["cache", "--cache-dir", str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["action"] == "stats"
        assert payload["root"] == str(tmp_path)
        assert payload["entries"] > 0
        assert payload["bytes"] > 0
        assert payload["calibration_profile"] is False
        assert "evicted" not in payload

    def test_prune_to_zero_empties_store(self, capsys, tmp_path):
        self._populate(tmp_path)
        capsys.readouterr()
        assert main(["cache", "--cache-dir", str(tmp_path),
                     "--prune-to", "0", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["action"] == "prune"
        assert payload["evicted"] > 0
        assert payload["entries"] == 0
        assert payload["bytes"] == 0

    def test_prune_keeps_entries_under_budget(self, capsys, tmp_path):
        self._populate(tmp_path)
        capsys.readouterr()
        assert main(["cache", "--cache-dir", str(tmp_path), "--json"]) == 0
        before = json.loads(capsys.readouterr().out)
        assert main(["cache", "--cache-dir", str(tmp_path),
                     "--prune-to", "1G", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["evicted"] == 0
        assert payload["entries"] == before["entries"]

    def test_clear_removes_everything_but_not_calibration(
        self, capsys, tmp_path
    ):
        self._populate(tmp_path)
        (tmp_path / "calibration.json").write_text("{}")
        capsys.readouterr()
        assert main(["cache", "--cache-dir", str(tmp_path), "--clear"]) == 0
        out = capsys.readouterr().out
        assert "cleared" in out
        assert "entries: 0" in out
        assert "calibration profile: present" in out
        assert (tmp_path / "calibration.json").exists()

    def test_warm_restart_after_prune_recovers(self, capsys, tmp_path):
        """Pruning is maintenance, not corruption: the next run simply
        recomputes and respills."""
        self._populate(tmp_path)
        assert main(["cache", "--cache-dir", str(tmp_path),
                     "--prune-to", "0"]) == 0
        capsys.readouterr()
        self._populate(tmp_path)
        payload = json.loads(capsys.readouterr().out)
        assert payload["meta"]["cache"]["spills"] > 0

    def test_prune_expired_evicts_only_stale_entries(
        self, capsys, tmp_path
    ):
        import os

        self._populate(tmp_path)
        capsys.readouterr()
        clocks = sorted(tmp_path.glob("blobs/*/meta.json"))
        assert len(clocks) >= 2
        stamp = clocks[0].stat().st_mtime - 10 * 86400
        os.utime(clocks[0], (stamp, stamp))
        assert main(["cache", "--cache-dir", str(tmp_path),
                     "--prune-expired", "7", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["action"] == "prune-expired"
        assert payload["evicted"] == 1
        assert payload["entries"] == len(clocks) - 1

    def test_prune_expired_human_rendering(self, capsys, tmp_path):
        self._populate(tmp_path)
        capsys.readouterr()
        assert main(["cache", "--cache-dir", str(tmp_path),
                     "--prune-expired", "30"]) == 0
        out = capsys.readouterr().out
        assert "pruned: 0 entries evicted" in out

    def test_prune_expired_zero_days_empties_store(self, capsys, tmp_path):
        self._populate(tmp_path)
        capsys.readouterr()
        assert main(["cache", "--cache-dir", str(tmp_path),
                     "--prune-expired", "0", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["evicted"] > 0
        assert payload["entries"] == 0

    def test_prune_expired_rejects_negative_days(self, capsys, tmp_path):
        self._populate(tmp_path)
        code = main(["cache", "--cache-dir", str(tmp_path),
                     "--prune-expired=-1"])
        assert code != 0

    def test_prune_expired_excludes_other_actions(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            main(["cache", "--cache-dir", str(tmp_path),
                  "--prune-expired", "7", "--clear"])

    def test_rejects_malformed_byte_size(self, capsys):
        with pytest.raises(SystemExit):
            main(["cache", "--prune-to", "lots"])

    @pytest.mark.parametrize("bogus", ["inf", "-inf", "nan", "-5", "1e40"])
    def test_rejects_non_finite_byte_sizes(self, capsys, bogus):
        """Regression: 'inf' used to escape as an OverflowError traceback."""
        with pytest.raises(SystemExit):
            # `=` form so argparse cannot mistake "-inf" for an option.
            main(["cache", f"--prune-to={bogus}"])
        assert "byte size" in capsys.readouterr().err

    def test_byte_size_suffix_parsing(self):
        from repro.cli import _parse_byte_size

        assert _parse_byte_size("500000") == 500000
        assert _parse_byte_size("256K") == 256 * 1024
        assert _parse_byte_size("1.5M") == int(1.5 * 1024 * 1024)
        assert _parse_byte_size("2G") == 2 * 1024**3
        assert _parse_byte_size("0") == 0

    def test_stats_on_missing_dir_does_not_create_it(self, capsys, tmp_path):
        missing = tmp_path / "not" / "created"
        assert main(["cache", "--cache-dir", str(missing)]) == 0
        assert "no cache directory" in capsys.readouterr().out
        assert not missing.exists()
        assert main(["cache", "--cache-dir", str(missing), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exists"] is False
        assert not missing.exists()


class TestCalibrateCommand:
    def test_quick_calibrate_writes_profile(self, capsys, tmp_path):
        assert main([
            "calibrate", "--cache-dir", str(tmp_path), "--quick",
        ]) == 0
        out = capsys.readouterr().out
        assert "sparse_auto_min_n" in out
        assert (tmp_path / "calibration.json").exists()
        from repro.linalg.calibrate import load_profile

        assert load_profile(tmp_path) is not None

    def test_quick_calibrate_json(self, capsys, tmp_path):
        assert main([
            "calibrate", "--cache-dir", str(tmp_path), "--quick", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sparse_auto_min_n"] >= 2
        assert 0.0 < payload["sparse_auto_density"] <= 1.0
        assert payload["path"] == str(tmp_path / "calibration.json")
        assert any(row.get("probe") == "size" for row in payload["probe"])
