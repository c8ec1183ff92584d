"""BENCH_*.json schema: build, validate, round-trip, trajectory files."""

import json
from pathlib import Path

import pytest

from repro.bench import (
    SCHEMA,
    bench_filename,
    build_bench,
    list_bench_files,
    load_bench,
    next_bench_id,
    validate_bench,
    write_bench,
)


def make_cell(workload="thermal-32x32-s50-f00", route="serial", **metrics):
    base = {
        "wall_s": 0.1,
        "ms_per_frame": 25.0,
        "rmse": 0.02,
        "delivered": 1.0,
        "ok_fraction": 1.0,
        "speedup_vs_serial": None,
    }
    base.update(metrics)
    return {
        "workload": workload,
        "route": route,
        "dataset": workload.split("-")[0],
        "shape": [32, 32],
        "sampling_fraction": 0.5,
        "fault_rate": 0.0,
        "frames": 4,
        "solver": "fista",
        "tier": 1,
        "metrics": base,
    }


def make_doc(bench_id=1, cells=None, suite="smoke"):
    return build_bench(
        bench_id=bench_id,
        suite=suite,
        seed=0,
        cells=cells if cells is not None else [make_cell()],
    )


class TestBuildAndValidate:
    def test_built_documents_are_valid(self):
        doc = make_doc()
        assert doc["schema"] == SCHEMA
        assert validate_bench(doc) == []

    def test_numpy_values_are_coerced(self):
        np = pytest.importorskip("numpy")
        cell = make_cell(wall_s=np.float64(0.1), rmse=np.float32(0.02))
        cell["shape"] = [np.int64(32), np.int64(32)]
        doc = make_doc(cells=[cell])
        assert validate_bench(doc) == []
        json.dumps(doc)  # must not raise

    def test_meta_is_carried(self):
        doc = build_bench(1, "smoke", 0, [make_cell()], meta={"sha": "x"})
        assert doc["meta"] == {"sha": "x"}

    @pytest.mark.parametrize("key", ["schema", "bench_id", "cells", "host"])
    def test_missing_top_level_key(self, key):
        doc = make_doc()
        del doc[key]
        assert any(key in p for p in validate_bench(doc))

    def test_wrong_schema_tag(self):
        doc = make_doc()
        doc["schema"] = "repro.bench/v0"
        assert any("schema" in p for p in validate_bench(doc))

    def test_missing_cell_key_and_metric(self):
        cell = make_cell()
        del cell["solver"]
        del cell["metrics"]["rmse"]
        problems = validate_bench(make_doc(cells=[cell]))
        assert any("solver" in p for p in problems)
        assert any("rmse" in p for p in problems)

    def test_duplicate_cells_flagged(self):
        doc = make_doc(cells=[make_cell(), make_cell()])
        assert any("duplicates" in p for p in validate_bench(doc))

    def test_non_dict_document(self):
        assert validate_bench([1, 2]) != []


class TestFiles:
    def test_round_trip(self, tmp_path):
        doc = make_doc(bench_id=6)
        path = tmp_path / bench_filename(6)
        write_bench(doc, path)
        assert load_bench(path) == json.loads(path.read_text())

    def test_write_refuses_invalid(self, tmp_path):
        doc = make_doc()
        doc["cells"] = "not a list"
        with pytest.raises(ValueError, match="invalid benchmark document"):
            write_bench(doc, tmp_path / "BENCH_1.json")

    def test_load_rejects_corrupt(self, tmp_path):
        path = tmp_path / "BENCH_1.json"
        path.write_text(json.dumps({"schema": SCHEMA}))
        with pytest.raises(ValueError, match="invalid benchmark document"):
            load_bench(path)

    def test_listing_ignores_non_trajectory_files(self, tmp_path):
        for bench_id in (3, 1, 10):
            write_bench(make_doc(bench_id=bench_id),
                        tmp_path / bench_filename(bench_id))
        # Instrument dumps and strays must not leak into the trajectory.
        (tmp_path / "BENCH_test_fig6a.instrument.json").write_text("{}")
        (tmp_path / "BENCH_.json").write_text("{}")
        (tmp_path / "notes.json").write_text("{}")
        ids = [bench_id for bench_id, _ in list_bench_files(tmp_path)]
        assert ids == [1, 3, 10]
        assert next_bench_id(tmp_path) == 11

    def test_every_committed_document_loads(self):
        root = Path(__file__).resolve().parents[2]
        ids = [bench_id for bench_id, _ in list_bench_files(root)]
        assert {6, 22, 23} <= set(ids)
        for _, path in list_bench_files(root):
            load_bench(path)  # raises on any schema problem

    def test_next_id_on_empty_root(self, tmp_path):
        assert next_bench_id(tmp_path) == 1
        assert next_bench_id(tmp_path / "missing") == 1
