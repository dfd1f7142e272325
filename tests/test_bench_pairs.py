"""tools/bench_pairs.py: pairing of run records and the verdicts per metric."""

import importlib.util
import json
import os
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BENCHMARK = {"end_to_end": [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25},
]}


def write_records(out_dir: Path, side: str, walls, rates, corpus="c", order=None):
    out_dir.mkdir()
    for i, (wall, rate) in enumerate(zip(walls, rates)):
        seed = 300 + i
        path = out_dir / f"sweep-seed{seed}-trace0-record.json"
        path.write_text(json.dumps({
            "workload": "sweep", "seed": seed, "cpu_model": "cpu", "nproc": 2,
            "cpus_usable": 2, "python": "3", "numpy": "2", "git_commit": None,
            "source_sha256": side, "corpus_sha256": f"{corpus}{seed}",
            "attempted": 8, "failed": 0, "metrics": {"wall_s": wall, "rate": rate}}))
        # the parent ran first in even pairs
        first = (i % 2 == 0) == (side == "parent")
        os.utime(path, (1000 + 10 * i + (0 if first else 5),) * 2)
    # a traced record is ignored
    (out_dir / "sweep-seed300-trace1-record.json").write_text("{}")


def run(tmp_path, parent, change, **kw):
    write_records(tmp_path / "p", "parent", *parent)
    write_records(tmp_path / "c", "change", *change, **kw)
    out = tmp_path / "bench.json"
    code = bench_pairs.main(["--parent", str(tmp_path / "p"), "--change", str(tmp_path / "c"),
                             "--benchmark", str(tmp_path / "bm.json"), "--out", str(out)])
    return code, (json.loads(out.read_text()) if code == 0 else None)


def test_pairs_and_verdicts(tmp_path, capsys):
    (tmp_path / "bm.json").write_text(json.dumps(BENCHMARK))
    parent = ([7.0, 7.2, 6.9, 7.1, 7.4, 7.0, 7.3, 6.8, 7.1, 7.2], [10.0] * 10)
    change = ([1.7, 1.6, 1.8, 7.5, 1.7, 1.6, 1.7, 1.9, 1.6, 1.8],
              [10.0, 9.0, 11.0, 10.0, 9.5, 10.5, 10.0, 9.0, 11.0, 10.0])
    code, bench = run(tmp_path, parent, change)
    assert code == 0
    assert bench["pairs"] == 10 and bench["change"]["source_sha256"] == ["change"]
    sweep = bench["workloads"]["sweep"]
    assert sweep["first"] == ["parent", "change"] * 5
    assert sweep["failed"] == {"parent": 0, "change": 0}
    wall = sweep["wall_s"]
    assert (wall["change_wins"], wall["change_losses"]) == (9, 1)
    assert wall["parent"]["median"] == 7.1 and wall["change"]["median"] == 1.7
    assert wall["gain"] and wall["within_bound"] and wall["resolved"]
    rate = sweep["rate"]  # higher is better: ties and losses are no gain
    assert (rate["change_wins"], rate["change_losses"]) == (3, 3)
    assert not rate["gain"] and rate["within_bound"] and rate["resolved"]
    assert "sweep    wall_s" in capsys.readouterr().out


def test_different_corpora_refused(tmp_path, capsys):
    (tmp_path / "bm.json").write_text(json.dumps(BENCHMARK))
    code, _ = run(tmp_path, ([1.0], [1.0]), ([1.0], [1.0]), corpus="other")
    assert code == 2
    assert "different corpora" in capsys.readouterr().err
