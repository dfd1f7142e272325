import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rastershape import matcher
from rastershape.cli import build_parser, main
from rastershape.descriptor import VARIANTS
from rastershape.evaluation import (
    STANDARD_OCCLUSION_CONFIGS,
    OcclusionReport,
    SweepReport,
    read_sweep_csv,
)
from rastershape.matcher import DescriptorDatabase, load_database
from rastershape.shape_io import BinaryShape, load_image, occlude, save_image

from oracles import ref_topk


@pytest.fixture()
def toy_dir(tmp_path, toy_corpus):
    d = tmp_path / "toy"
    d.mkdir()
    for shape in toy_corpus:
        save_image(shape, d / f"{shape.id}.pgm")
    return d


def test_index_builds_database(toy_dir, tmp_path, capsys):
    out = tmp_path / "toy.rdb"
    code = main(["index", str(toy_dir), "--variant", "circ_radial",
                 "--sep", "8", "--samples", "24", "--out", str(out)])
    assert code == 0
    assert "indexed 12 images" in capsys.readouterr().out
    db = load_database(out)
    assert len(db.records) == 12
    assert db.spec.separation_px == 8


def test_index_empty_dir_exits_2(tmp_path, capsys):
    empty = tmp_path / "none"
    empty.mkdir()
    code = main(["index", str(empty), "--variant", "circ_radial",
                 "--out", str(tmp_path / "x.rdb")])
    assert code == 2
    assert "no input images" in capsys.readouterr().err


def test_index_unreadable_image_named(tmp_path, capsys):
    d = tmp_path / "bad"
    d.mkdir()
    (d / "broken-1.pgm").write_bytes(b"P9\nnope")
    code = main(["index", str(d), "--variant", "circ_radial",
                 "--out", str(tmp_path / "x.rdb")])
    assert code == 2
    assert "broken-1" in capsys.readouterr().err


def test_index_refuses_an_image_entry_that_is_not_a_file(toy_dir, tmp_path, capsys):
    # x-1.pgm, a link to nothing, and y-1.pgm, a subdirectory, among the
    # toy images: the index exits 2 naming the first, and writes nothing
    (toy_dir / "x-1.pgm").symlink_to(tmp_path / "nonexistent")
    (toy_dir / "y-1.pgm").mkdir()
    out = tmp_path / "x.rdb"
    assert main(["index", str(toy_dir), "--variant", "circ_radial", "--out", str(out)]) == 2
    assert f"x-1.pgm in '{toy_dir}' is not a regular file" in capsys.readouterr().err
    assert not out.exists()


def test_query_self_match_and_format(toy_dir, tmp_path, capsys):
    out = tmp_path / "toy.rdb"
    main(["index", str(toy_dir), "--variant", "circ_radial", "--out", str(out)])
    capsys.readouterr()
    code = main(["query", str(out), str(toy_dir / "disk-1.pgm"), "--k", "3"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    rank, rec_id, category, dist = lines[0].split("\t")
    assert (rank, rec_id, category, dist) == ("1", "disk-1", "disk", "0.000000")


def test_workloads_make_no_value_matrix_of_a_count_database(toy_dir, tmp_path, capsys,
                                                           monkeypatch):
    # every database index, sweep and occlude build, and every loaded file,
    # holds its counts alone and ranks every extracted query by the exact
    # rule: for all four variants at 24 samples (not a power of two, so a
    # count over 24 is not exact in 6 decimals), none makes a count
    # database's matrix of values or runs the float kernel
    made, kernel = [], []
    matrix, distances = DescriptorDatabase.matrix.fget, matcher._distances

    def watched(db):
        if db._counts is not None:
            made.append(db.variant)
        return matrix(db)

    def float_kernel(rows, q):
        kernel.append(rows.shape)
        return distances(rows, q)

    monkeypatch.setattr(DescriptorDatabase, "matrix", property(watched))
    monkeypatch.setattr(matcher, "_distances", float_kernel)
    out = tmp_path / "toy.rdb"
    for variant in VARIANTS:
        assert main(["index", str(toy_dir), "--variant", variant, "--sep", "8",
                     "--samples", "24", "--out", str(out)]) == 0
        assert load_database(out)._counts is not None
        for image in sorted(toy_dir.iterdir()):
            assert main(["query", str(out), str(image)]) == 0
        assert main(["sweep", str(toy_dir), "--variant", variant, "--seps", "8", "16",
                     "--samples", "24", "7"]) == 0
        assert main(["occlude", str(toy_dir), "--variant", variant, "--seps", "8",
                     "--samples", "24"]) == 0
    assert main(["occlude", str(toy_dir)]) == 0
    assert made == [] and kernel == []
    load_database(out).matrix  # the watch sees a read
    assert made == ["spiral_fixed"]


def test_query_k_exceeds_database_warns(toy_dir, tmp_path, capsys):
    out = tmp_path / "toy.rdb"
    main(["index", str(toy_dir), "--variant", "circ_radial", "--out", str(out)])
    capsys.readouterr()
    code = main(["query", str(out), str(toy_dir / "disk-1.pgm"), "--k", "50"])
    assert code == 0
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 12
    assert "only 12 records" in captured.err


def test_query_spec_mismatch_prints_both(toy_dir, tmp_path, capsys):
    out = tmp_path / "toy.rdb"
    main(["index", str(toy_dir), "--variant", "circ_radial",
          "--sep", "8", "--samples", "24", "--out", str(out)])
    capsys.readouterr()
    code = main(["query", str(out), str(toy_dir / "disk-1.pgm"), "--sep", "16"])
    assert code == 2
    err = capsys.readouterr().err
    assert "separation_px=16" in err and "separation_px=8" in err


@pytest.mark.parametrize("flags, expected", [
    (["--variant", "circ_angular"], ["requested extraction circ_angular", "database circ_radial"]),
    (["--samples", "12"], ["samples_per_cycle=12", "samples_per_cycle=24"]),
    (["--sep", "0"], ["separation_px must be a positive integer, got 0"]),
])
def test_query_flag_the_database_does_not_match_exits_2_before_reading(
        flags, expected, toy_dir, tmp_path, capsys, monkeypatch):
    out = tmp_path / "toy.rdb"
    main(["index", str(toy_dir), "--variant", "circ_radial",
          "--sep", "8", "--samples", "24", "--out", str(out)])
    capsys.readouterr()
    monkeypatch.setattr("rastershape.cli.load_image", lambda *a, **kw: pytest.fail("read"))
    code = main(["query", str(out), str(toy_dir / "disk-1.pgm"), *flags])
    assert code == 2
    err = capsys.readouterr().err
    assert all(e in err for e in expected), err


def test_query_flags_equal_to_the_database_change_nothing(toy_dir, tmp_path, capsys):
    out = tmp_path / "toy.rdb"
    main(["index", str(toy_dir), "--variant", "circ_radial",
          "--sep", "8", "--samples", "24", "--out", str(out)])
    capsys.readouterr()
    argv = ["query", str(out), str(toy_dir / "ring-2.pgm"), "--k", "5"]
    assert main(argv) == 0
    plain = capsys.readouterr()
    assert main(argv + ["--variant", "circ_radial", "--sep", "8", "--samples", "24"]) == 0
    assert capsys.readouterr() == plain
    assert len(plain.out.splitlines()) == 5


def test_query_matches_oracle_ordering(toy_dir, tmp_path, capsys):
    out = tmp_path / "toy.rdb"
    main(["index", str(toy_dir), "--variant", "spiral_full", "--sep", "16",
          "--samples", "8", "--out", str(out)])
    capsys.readouterr()
    code = main(["query", str(out), str(toy_dir / "ring-2.pgm"), "--k", "5"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()

    from rastershape.descriptor import extract
    from rastershape.raster import RasterSpec
    from rastershape.shape_io import load_image

    db = load_database(out)
    q = extract(load_image(toy_dir / "ring-2.pgm"), RasterSpec("spiral", 16, 8),
                "spiral_full")
    expected = ref_topk(db.records, list(q.values), 5)
    assert [l.split("\t")[1] for l in lines] == [rec_id for rec_id, _ in expected]


def test_sweep_csv_output(toy_dir, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", str(toy_dir), "--variant", "circ_radial",
                 "--seps", "8", "32", "--samples", "4", "24", "--out", str(out)])
    assert code == 0
    report = read_sweep_csv(out)
    assert len(report.cells) == 4
    assert report.dataset == "toy"
    grid = {(c.separation_px, c.samples_per_cycle): c.efficiency_pct
            for c in report.cells}
    assert grid[(8, 24)] >= grid[(32, 4)]


def test_sweep_single_cell_to_stdout(toy_dir, capsys):
    code = main(["sweep", str(toy_dir), "--variant", "circ_radial",
                 "--seps", "8", "--samples", "24"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("variant,dataset,")
    assert len([l for l in lines if l.startswith("circ_radial,")]) == 1


def test_sweep_of_the_working_directory_names_it(toy_dir, tmp_path, capsys, monkeypatch):
    out = tmp_path / "sweep.csv"
    monkeypatch.chdir(toy_dir)
    assert main(["sweep", ".", "--variant", "circ_radial", "--seps", "8",
                 "--samples", "4", "--out", str(out)]) == 0
    assert [row.split(",")[1] for row in out.read_text().splitlines()[1:]] == ["toy"]
    capsys.readouterr()
    assert main(["report", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "circ_radial on toy (efficiency_pct)"


def test_sweep_of_the_filesystem_root_names_its_path(monkeypatch, capsys):
    labels = []

    def grab(shapes, variant, dataset_label, **kwargs):
        labels.append(dataset_label)
        return SweepReport(variant, dataset_label, ())

    monkeypatch.setattr("rastershape.cli.sweep", grab)
    root = Path("/").resolve()
    assert main(["sweep", str(root), "--variant", "circ_radial"]) == 0
    assert labels == [str(root)]


def test_sweep_requires_variant(toy_dir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", str(toy_dir)])
    assert exc.value.code == 2


def test_occlude_standard_configs(toy_dir, tmp_path, capsys):
    report_csv = tmp_path / "occ.csv"
    out_dir = tmp_path / "occluded"
    code = main(["occlude", str(toy_dir), "--fraction", "0.2", "--seed", "0",
                 "--out", str(out_dir), "--report", str(report_csv)])
    assert code == 0
    images = sorted(p.name for p in out_dir.iterdir())
    assert len(images) == 6
    assert images[0] == "bar-1-occ.pgm"

    lines = report_csv.read_text().splitlines()
    assert lines[0] == "variant,separation,samples,efficiency_pct"
    rows = {l.split(",")[0]: float(l.split(",")[3]) for l in lines[1:]}
    assert set(rows) == {"circ_radial", "spiral_full", "spiral_fixed", "circ_angular"}
    assert rows["spiral_full"] >= rows["spiral_fixed"]


def test_occlude_per_category_below_one_exits_2(toy_dir, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("rastershape.evaluation._hits", lambda *a: pytest.fail("extracted"))
    for n in ("-1", "0"):
        out_dir = tmp_path / f"occluded{n}"
        code = main(["occlude", str(toy_dir), "--per-category", n, "--out", str(out_dir)])
        assert code == 2
        assert f"per_category must be >= 1, got {n}" in capsys.readouterr().err
        assert not out_dir.exists()
        assert main(["occlude", str(toy_dir), "--per-category", n]) == 2
        assert f"per_category must be >= 1, got {n}" in capsys.readouterr().err


def test_occlude_bad_arguments_write_no_images(toy_dir, tmp_path, capsys):
    for args, message in ((["--k", "0"], "k must be >= 1, got 0"),
                          (["--variant", "circ_radial", "--seps", "0"],
                           "separation_px must be a positive integer, got 0")):
        out_dir = tmp_path / f"occluded{len(args)}"
        assert main(["occlude", str(toy_dir), *args, "--out", str(out_dir)]) == 2
        assert message in capsys.readouterr().err
        assert not out_dir.exists()


def test_occlude_negative_seed_exits_2(toy_dir, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("rastershape.evaluation._hits", lambda *a: pytest.fail("extracted"))
    out_dir = tmp_path / "occluded"
    assert main(["occlude", str(toy_dir), "--seed", "-1", "--out", str(out_dir)]) == 2
    assert "error: seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out_dir.exists()


def test_occlude_out_naming_a_file_exits_2(toy_dir, tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("a file")
    assert main(["occlude", str(toy_dir), "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert out.read_text() == "a file"


def test_occlude_occludes_each_query_once(toy_dir, tmp_path, capsys, monkeypatch):
    occluded = []

    def counting(shape, fraction, seed):
        occluded.append(shape.id)
        return occlude(shape, fraction, seed)

    monkeypatch.setattr("rastershape.evaluation.occlude", counting)
    out_dir = tmp_path / "occluded"
    assert main(["occlude", str(toy_dir), "--out", str(out_dir)]) == 0
    assert len(occluded) == len(set(occluded)) == 6
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(f"{i}-occ.pgm" for i in occluded)


def test_occlude_fraction_zero_all_perfect(toy_dir, capsys):
    code = main(["occlude", str(toy_dir), "--fraction", "0"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    values = [float(l.rsplit(",", 1)[1]) for l in lines[1:]]
    assert values == [100.0] * 4


def test_occlude_custom_variant_grid(toy_dir, capsys):
    code = main(["occlude", str(toy_dir), "--variant", "circ_radial",
                 "--seps", "8", "16", "--samples", "6"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert all(l.startswith("circ_radial,") for l in lines[1:])


def test_report_renders_grid(toy_dir, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    main(["sweep", str(toy_dir), "--variant", "circ_radial",
          "--seps", "8", "16", "24", "32", "--samples", "4", "6", "8", "12", "24",
          "--out", str(out)])
    capsys.readouterr()
    code = main(["report", str(out)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "circ_radial on toy (efficiency_pct)"
    assert lines[1].split() == ["sep\\smp", "4", "6", "8", "12", "24"]
    assert len(lines) == 6
    assert lines[2].split()[0] == "8"
    assert len(lines[2].split()) == 6

    code = main(["report", str(out), "--metric", "avg_time"])
    assert code == 0
    assert "avg_time_s" in capsys.readouterr().out


def test_report_rejects_bad_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("hello\n")
    code = main(["report", str(bad)])
    assert code == 2
    header = "variant,dataset,separation,samples,efficiency_pct,total_time_s,avg_time_s\n"
    good = "circ_radial,toy,8,4,50.0,0.010,0.001\n"
    for row in ("circ_radial,toy,8\n", "circ_radial,toy,8,four,50.0,0.010,0.001\n",
                "circ_radial,toy,8,4,nan,inf,0.001\n",
                "circ_radial,toy,8,4," + "5" * 200_000 + ",0.010,0.001\n",
                "circ_radial,toy,8,4,60.0,0.010,0.001\n",
                "circ_radial,toy,8,24,150.0,-1.0,0.001\n",
                "circ_radial,toy,8,24,50.0,0.010,-0.001\n"):
        bad.write_text(header + good + row)
        capsys.readouterr()
        assert main(["report", str(bad)]) == 2
        captured = capsys.readouterr()
        assert "row 3" in captured.err
        assert "nan" not in captured.out
    bad.write_bytes((header + good).encode() + b"circ_radial,toy,8,4,\xff,0.010,0.001\n")
    capsys.readouterr()
    assert main(["report", str(bad)]) == 2
    assert "bad.csv: not UTF-8 text" in capsys.readouterr().err


def test_missing_database_exits_2(tmp_path, toy_dir, capsys):
    code = main(["query", str(tmp_path / "none.rdb"), str(toy_dir / "disk-1.pgm")])
    assert code == 2


def test_version_gate_via_cli(tmp_path, toy_dir, capsys):
    db = tmp_path / "v2.rdb"
    db.write_text("RASTERDB v2 kind=circular variant=circ_radial sep=8 samples=24\n")
    code = main(["query", str(db), str(toy_dir / "disk-1.pgm")])
    assert code == 2
    assert "v2" in capsys.readouterr().err


def test_query_oversized_lattice_header_exits_2(tmp_path, toy_dir, capsys):
    # a lattice of 10^9 samples per cycle is refused before anything is allocated
    db = tmp_path / "huge.rdb"
    db.write_text("RASTERDB v1 kind=circular variant=circ_radial sep=1 samples=1000000000\n"
                  "a-1\ta\t1\t0.500000\n")
    code = main(["query", str(db), str(toy_dir / "disk-1.pgm")])
    assert code == 2
    err = capsys.readouterr().err
    assert "huge.rdb:1: bad header" in err and "above the cap" in err


def test_index_refuses_id_that_would_split_a_line(toy_dir, tmp_path, capsys):
    # a form feed in a file name would end the record line when the database is read
    save_image(load_image(toy_dir / "disk-1.pgm"), toy_dir / "odd\x0cname-1.pgm")
    out = tmp_path / "t.rdb"
    code = main(["index", str(toy_dir), "--variant", "circ_radial", "--out", str(out)])
    assert code == 2
    assert "record 'odd\\x0cname-1': id holds a tab or line break" in capsys.readouterr().err
    assert not out.exists()


def test_index_refuses_a_file_name_that_is_not_utf8(toy_dir, tmp_path, capsys):
    # byte 0xff decodes to the lone surrogate U+DCFF, which UTF-8 cannot encode
    try:
        (toy_dir / os.fsdecode(b"odd\xff-1.pgm")).write_bytes((toy_dir / "disk-1.pgm").read_bytes())
    except (OSError, UnicodeEncodeError):
        pytest.skip("the filesystem refuses a file name that is not UTF-8")
    out = tmp_path / "t.rdb"
    code = main(["index", str(toy_dir), "--variant", "circ_radial", "--out", str(out)])
    assert code == 2
    assert "record 'odd\\udcff-1': id is not UTF-8 text" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["toy"]


def test_query_oversized_database_exits_2(tmp_path, toy_dir, capsys):
    # 1,001 records of up to 70,000 values: a 560 MB matrix, refused before allocating
    db = tmp_path / "wide.rdb"
    db.write_text("RASTERDB v1 kind=circular variant=circ_radial sep=8 samples=24\n"
                  "w-1\tw\t70000\t" + ",".join(["0.500000"] * 70_000) + "\n"
                  + "".join(f"n-{i}\tn\t1\t0.500000\n" for i in range(1000)))
    code = main(["query", str(db), str(toy_dir / "disk-1.pgm")])
    assert code == 2
    assert "wide.rdb: 1001 records x 70000 values is above the cap" in capsys.readouterr().err


def test_internal_fault_during_index_exits_1(toy_dir, tmp_path, capsys, monkeypatch):
    # the stream turns only bad input into DatasetError (exit 2); a fault propagates
    def broken(shape, configs):
        raise RuntimeError("bug")

    monkeypatch.setattr("rastershape.evaluation._hits", broken)
    code = main(["index", str(toy_dir), "--variant", "circ_radial",
                 "--out", str(tmp_path / "t.rdb")])
    assert code == 1
    assert "internal error: RuntimeError('bug')" in capsys.readouterr().err


def test_main_calls_share_no_state(toy_dir, capsys, monkeypatch):
    # the parser is built once per process; a command that empties the lists
    # it is given must not change what the next call parses
    seen = []

    def grabbing(name, report):
        def run(shapes, *args, progress=None, **kwargs):
            frozen = {key: tuple(v) if isinstance(v, list) else v for key, v in kwargs.items()}
            seen.append((name, tuple(args[0]) if name == "occlude" else args[0], frozen))
            for value in (*args, *kwargs.values()):
                if isinstance(value, list):
                    value.clear()
            return report
        return run

    monkeypatch.setattr("rastershape.cli.sweep",
                        grabbing("sweep", SweepReport("circ_radial", "toy", ())))
    monkeypatch.setattr("rastershape.cli.occlusion_experiment",
                        grabbing("occlude", OcclusionReport(0.2, 0, 2, ())))
    assert build_parser() is build_parser()
    for argv in (["sweep", str(toy_dir), "--variant", "spiral_fixed",
                  "--seps", "16", "--samples", "6", "12", "--k", "5"],
                 ["sweep", str(toy_dir), "--variant", "circ_radial"],
                 ["occlude", str(toy_dir), "--variant", "circ_radial", "--seed", "4"],
                 ["occlude", str(toy_dir), "--variant", "spiral_full",
                  "--seps", "8", "--samples", "4", "--fraction", "0.5"],
                 ["occlude", str(toy_dir)],
                 ["sweep", str(toy_dir), "--variant", "circ_radial"]):
        assert main(argv) == 0
    capsys.readouterr()
    grid = tuple(("circ_radial", d, s) for d in (8, 16, 24, 32) for s in (4, 6, 8, 12, 24))
    occlude = {"per_category": 2, "fraction": 0.2, "seed": 0, "k": 3}
    sweep = ("sweep", "circ_radial", {"separations": (8, 16, 24, 32),
                                      "samples": (4, 6, 8, 12, 24), "k": 3,
                                      "dataset_label": "toy"})
    assert seen == [
        ("sweep", "spiral_fixed", {"separations": (16,), "samples": (6, 12), "k": 5,
                                   "dataset_label": "toy"}),
        sweep,
        ("occlude", grid, {**occlude, "seed": 4}),
        ("occlude", (("spiral_full", 8, 4),), {**occlude, "fraction": 0.5}),
        ("occlude", STANDARD_OCCLUSION_CONFIGS, occlude),
        sweep,
    ]


# ------------------------------------------------- streaming the directory

COMMANDS = {
    "index": lambda d, tmp: ["index", str(d), "--variant", "circ_radial",
                             "--out", str(tmp / "t.rdb")],
    "sweep": lambda d, tmp: ["sweep", str(d), "--variant", "circ_radial", "--seps", "32",
                             "--samples", "4", "--out", str(tmp / "sweep.csv")],
    "occlude": lambda d, tmp: ["occlude", str(d), "--variant", "circ_radial", "--seps", "32",
                               "--samples", "4", "--report", str(tmp / "occ.csv")],
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_one_stem_twice_exits_2_before_decoding(command, toy_dir, tmp_path, capsys, monkeypatch):
    save_image(load_image(toy_dir / "disk-1.pgm"), toy_dir / "disk-1.pbm", format="P4")
    monkeypatch.setattr("rastershape.shape_io.load_image", lambda *a, **kw: pytest.fail("decoded"))
    assert main(COMMANDS[command](toy_dir, tmp_path)) == 2
    assert "disk-1.pbm and disk-1.pgm would share the id 'disk-1'" in capsys.readouterr().err
    assert not any(tmp_path.glob("*.*"))


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_empty_directory_exits_2_naming_it(command, tmp_path, capsys, monkeypatch):
    empty = tmp_path / "none"
    empty.mkdir()
    (empty / "notes.txt").write_text("not an image")
    assert main(COMMANDS[command](empty, tmp_path)) == 2
    assert f"no input images (.pbm/.pgm) in '{empty}'" in capsys.readouterr().err
    monkeypatch.chdir(empty)
    assert main(COMMANDS[command](Path("."), tmp_path)) == 2
    assert "no input images (.pbm/.pgm) in '.'" in capsys.readouterr().err
    assert not any(tmp_path.glob("*.*"))


def _copies(directory, n, mask):
    """``n`` copies of one mask as s-000.pgm, s-001.pgm, ..., all in category "s"."""
    directory.mkdir()
    save_image(BinaryShape(mask), directory / "s-000.pgm")
    data = (directory / "s-000.pgm").read_bytes()
    for i in range(1, n):
        (directory / f"s-{i:03d}.pgm").write_bytes(data)
    return directory


def _peak_bytes(argv):
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_memory_does_not_grow_with_the_directory(command, tmp_path, capsys):
    # one mask size throughout: the occlusion queries kept are then the same size
    yy, xx = np.mgrid[0:256, 0:256]
    mask = (xx - 120) ** 2 + (yy - 130) ** 2 < 90 ** 2
    small = _copies(tmp_path / "small", 4, mask)
    large = _copies(tmp_path / "large", 16, mask)
    main(COMMANDS[command](small, tmp_path))  # fills the lattice and parser caches
    peaks = [_peak_bytes(COMMANDS[command](d, tmp_path)) for d in (small, large)]
    assert peaks[1] - peaks[0] < mask.size, peaks


def test_corrupt_image_mid_directory_keeps_the_database(toy_dir, tmp_path, capsys):
    out = tmp_path / "t.rdb"
    assert main(COMMANDS["index"](toy_dir, tmp_path)) == 0
    before = out.read_bytes()
    (toy_dir / "disk-2.pgm").write_bytes(b"P5\n224 224\n255\n" + bytes(100))
    assert main(COMMANDS["index"](toy_dir, tmp_path)) == 2
    assert "disk-2.pgm: raster truncated" in capsys.readouterr().err
    assert out.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.rdb", "toy"]
    out.unlink()
    assert main(COMMANDS["index"](toy_dir, tmp_path)) == 2
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_first_bad_image_in_file_order_is_reported(command, tmp_path, capsys):
    # each image is decoded and extracted before the next is read
    d = tmp_path / "bad"
    d.mkdir()
    empty = BinaryShape(np.zeros((8, 8), dtype=bool))
    save_image(empty, d / "a-1.pgm")
    (d / "a-2.pgm").write_bytes(b"P9\nnope")
    assert main(COMMANDS[command](d, tmp_path)) == 2
    assert "'a-1' has no foreground pixels" in capsys.readouterr().err
    save_image(empty, d / "a-3.pgm")
    (d / "a-1.pgm").unlink()
    assert main(COMMANDS[command](d, tmp_path)) == 2
    assert "a-2.pgm: unsupported netpbm magic" in capsys.readouterr().err


@pytest.mark.parametrize("block", (3, 1 << 16))
def test_empty_shape_inside_a_block_is_reported_before_a_later_fault(
        block, tmp_path, capsys, monkeypatch):
    # a block of 3 hits groups every shape on its own; the default holds the
    # whole directory's hits: either way each image is looked up before the
    # next is decoded, so the empty shape is named, not the bad file after it
    monkeypatch.setattr("rastershape.evaluation._BLOCK_POINTS", block)
    d = tmp_path / "bad"
    d.mkdir()
    yy, xx = np.mgrid[0:40, 0:37]
    for i in range(1, 4):
        save_image(BinaryShape((xx - 18) ** 2 + (yy - 20) ** 2 < (5 + 4 * i) ** 2), d / f"a-{i}.pgm")
    save_image(BinaryShape(np.zeros((8, 8), dtype=bool)), d / "a-4.pgm")
    (d / "a-5.pgm").write_bytes(b"P9\nnope")
    for command in sorted(COMMANDS):
        assert main(COMMANDS[command](d, tmp_path)) == 2
        assert "extracting 'a-4': shape 'a-4' has no foreground pixels" in capsys.readouterr().err


def test_occlude_bad_fraction_extracts_nothing(toy_dir, tmp_path, capsys, monkeypatch):
    extracted = []
    monkeypatch.setattr("rastershape.evaluation._hits", lambda *a: extracted.append(a))
    out_dir = tmp_path / "occluded"
    for fraction in ("1.0", "-0.1", "nan"):
        assert main(["occlude", str(toy_dir), "--fraction", fraction, "--out", str(out_dir)]) == 2
        assert "occlusion fraction must be in [0, 1)" in capsys.readouterr().err
    assert extracted == []
    assert not out_dir.exists()
