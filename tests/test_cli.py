import argparse
import ast
import contextlib
import csv
import io
import json
import os
import pathlib
import random
import stat
import subprocess
import sys

import pytest

from markoff import cli, orbits, trace_algebra
from markoff.cli import main, parse_complex_literal, parse_k_range
from markoff.moves import GENERATOR_SETS, VIETA_MOVES, Move, apply_word, parse_word
from markoff.surfaces import Markoff11, Point3
from markoff.trace_algebra import IDENTITY_SUITES
from test_descent import _relabel_vieta


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cache_rows(log):
    """The rows of a scan cache log's text by key, a later line winning;
    every non-blank line must be a [key, row] pair."""
    return dict(json.loads(line) for line in log.splitlines() if line)


def test_parse_complex_literal():
    assert parse_complex_literal("1.5+0.25i") == 1.5 + 0.25j
    assert parse_complex_literal("3") == 3 + 0j
    assert parse_complex_literal("-2i") == -2j
    with pytest.raises(ValueError):
        parse_complex_literal("one+i")


def test_parse_k_range():
    assert list(parse_k_range("-2..2")) == [-2, -1, 0, 1, 2]
    assert list(parse_k_range("5..4")) == []
    with pytest.raises(ValueError):
        parse_k_range("5")


def test_reduce_markoff_chain(capsys):
    code, out, _ = run_cli(
        capsys, "reduce", "--type", "11", "--k", "-2", "--point", "3,6,15"
    )
    assert code == 0
    assert "reduced: (3, 3, 3)" in out
    assert "word: Vz Vy" in out
    assert "status: reduced" in out


def test_reduce_exceptional_exit_zero(capsys):
    code, out, _ = run_cli(
        capsys,
        "reduce", "--type", "11", "--k", "6", "--point", "2,3,1",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "exceptional_hit"
    assert payload["exceptional"] == {"axis": "x", "value": 2}


def test_reduce_off_surface_exit_one(capsys):
    code, out, err = run_cli(
        capsys, "reduce", "--type", "11", "--k", "-2", "--point", "1,1,1"
    )
    assert code == 1
    assert "residual = 2" in err


def test_reduce_malformed_point_exit_one(capsys):
    code, out, err = run_cli(capsys, "reduce", "--k", "-2", "--point", "1,2")
    assert (code, out) == (1, "")
    assert err == "error: expected three comma-separated coordinates, got '1,2'\n"


def test_reduce_cap_hit_exit_two(capsys):
    code, _, _ = run_cli(
        capsys,
        "reduce", "--type", "11", "--k", "-2", "--point", "3,6,15",
        "--cap-steps", "1",
    )
    assert code == 2


def test_reduce_complex_mode(capsys):
    code, out, _ = run_cli(
        capsys,
        "reduce", "--type", "11", "--k", "-2", "--point", "3.0,3.0,3.0",
        "--complex", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "reduced"
    assert payload["steps"] == 0


def test_reduce_complex_04(capsys):
    code, out, _ = run_cli(
        capsys,
        "reduce", "--type", "04", "--k", "0.0,0.0,0.0,0.0", "--point", "2.0,0.0,0.0",
        "--complex", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["terminal_condition"] == 1


def test_scan_range_json(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--type", "11", "--k-range", "-2..2", "--box", "30"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["box"] == 30
    assert doc["generators"] == "gamma_prime"
    assert [row["k"] for row in doc["rows"]] == [-2, -1, 0, 1, 2]
    row = doc["rows"][0]
    assert row["h_star_gamma_prime"] == 2
    assert set(row) == {
        "k",
        "h_star_gamma_poly",
        "h_star_gamma_prime",
        "exceptional",
        "caps_hit",
        "representatives",
    }


def test_scan_empty_range_header_only(capsys):
    code, out, _ = run_cli(
        capsys,
        "scan", "--type", "11", "--k-range", "2..1", "--box", "10",
        "--format", "csv",
    )
    assert code == 0
    assert out.splitlines() == [
        "k,h_star_gamma_poly,h_star_gamma_prime,exceptional,caps_hit"
    ]


def test_scan_04_csv_row(capsys):
    # a sphere row's k is its four parameters joined by spaces
    code, out, err = run_cli(
        capsys, "scan", "--type", "04", "--k", "0,1,2,3", "--box", "30", "--format", "csv"
    )
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "k,h_star_gamma_poly,h_star_gamma_prime,exceptional,caps_hit",
        "0 1 2 3,3,2,32,False",
    ]


def test_scan_04_single_row(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--type", "04", "--k", "0,0,0,0", "--box", "8"
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 1
    assert doc["rows"][0]["k"] == [0, 0, 0, 0]


def test_scan_cache_byte_identical(tmp_path, capsys):
    cache = tmp_path / "cache.json"
    argv = [
        "scan", "--type", "11", "--k-range", "-2..0", "--box", "25",
        "--cache", str(cache),
    ]
    code1, out1, _ = run_cli(capsys, *argv)
    assert code1 == 0 and cache.exists()
    stamp = cache.read_text()
    code2, out2, _ = run_cli(capsys, *argv)
    assert code2 == 0
    assert out1 == out2
    assert cache.read_text() == stamp


def test_scan_cache_env_var(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "envcache.json"
    monkeypatch.setenv("MARKOFF_CACHE", str(cache))
    code, _, _ = run_cli(capsys, "scan", "--type", "11", "--k", "-2", "--box", "10")
    assert code == 0
    assert cache.exists()
    assert len(cache_rows(cache.read_text())) == 1


def test_scan_cache_key_includes_box(tmp_path, capsys):
    cache = tmp_path / "cache.json"
    run_cli(capsys, "scan", "--k", "-2", "--box", "10", "--cache", str(cache))
    run_cli(capsys, "scan", "--k", "-2", "--box", "20", "--cache", str(cache))
    assert len(cache_rows(cache.read_text())) == 2


def test_scan_rejects_cap_steps(tmp_path, capsys):
    # --cap-steps bounds only reduce; scan refuses it instead of ignoring it
    cache = tmp_path / "cache.json"
    argv = ["scan", "--k", "-2", "--box", "10", "--cache", str(cache)]
    code1, out1, _ = run_cli(capsys, *argv)
    stamp = cache.read_text()
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--cap-steps", "5"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --cap-steps 5" in capsys.readouterr().err
    code2, out2, _ = run_cli(capsys, *argv)
    assert (code1, code2) == (0, 0)
    assert out1 == out2
    assert cache.read_text() == stamp
    assert len(cache_rows(stamp)) == 1


def test_scan_cache_stale_code_is_miss(tmp_path, capsys):
    # a row stored by other code is recomputed; one stored by this code is served
    cache = tmp_path / "cache.json"
    poisoned = {"k": -2, "h_star_gamma_poly": 99, "h_star_gamma_prime": 99,
                "exceptional": 0, "caps_hit": False, "representatives": []}
    for code_hash, served in (("other-code", 2), (cli._source_hash(), 99)):
        key = cli._row_key("11", (-2,), "gamma_prime", 10, 10, code_hash)
        cache.write_text(json.dumps([key, poisoned]) + "\n")
        code, out, _ = run_cli(capsys, "scan", "--k", "-2", "--box", "10", "--cache", str(cache))
        assert code == 0
        assert json.loads(out)["rows"][0]["h_star_gamma_prime"] == served


# a log line counts only as a [str, row] pair: "ab" and a 2-key object
# would unpack into a key and a row too; json.loads raises RecursionError,
# not ValueError, on a line nested too deep
@pytest.mark.parametrize("garbage", [
    b"\xff\x00 not json", b"[1, 2]", b'{"entries": 3}', b'"ab"', b'{"a": 1, "b": 2}',
    pytest.param(b"[" * 100_000, id="deep-nesting"),
])
def test_scan_unreadable_cache_is_miss(tmp_path, capsys, garbage):
    argv = ["scan", "--type", "11", "--k-range", "-2..0", "--box", "25"]
    _, fresh, _ = run_cli(capsys, *argv)
    cache = tmp_path / "cache.json"
    cache.write_bytes(garbage)
    code, out, err = run_cli(capsys, *argv, "--cache", str(cache))
    assert code == 0
    assert out == fresh
    assert err == f"warning: malformed line 1 in cache {cache}; skipped\n"


@pytest.mark.parametrize("entry", [
    3, None, {"k": -2},
    # every field present, but k is another row's and the values have the
    # wrong types ("no" is truthy, so it read as a caps hit)
    {"k": 99, "h_star_gamma_poly": "x", "h_star_gamma_prime": None, "exceptional": 0,
     "caps_hit": "no", "representatives": 5},
])
def test_scan_malformed_cache_row_is_miss(tmp_path, capsys, entry):
    argv = ["scan", "--k", "-2", "--box", "10"]
    _, fresh, _ = run_cli(capsys, *argv)
    cache = tmp_path / "cache.json"
    key = cli._row_key("11", (-2,), "gamma_prime", 10, 10, cli._source_hash())
    cache.write_text(json.dumps([key, entry]) + "\n")
    code, out, err = run_cli(capsys, *argv, "--cache", str(cache))
    assert code == 0
    assert out == fresh
    assert err.startswith("warning:") and "cache" in err
    assert cache_rows(cache.read_text())[key] == json.loads(fresh)["rows"][0]


@pytest.mark.parametrize("argv", [
    ("--type", "11", "--k-range", "-2..1", "--box", "30"),
    ("--type", "04", "--k", "0,1,2,3", "--box", "12", "--gens", "gamma_poly"),
    ("--type", "11", "--k-range", "-2..1", "--box", "30", "--cap-height", "45"),
])
def test_scan_enumerates_each_row_once(capsys, monkeypatch, argv):
    # both generator sets of a row label the points of one sweep at the cap
    # height, whose +-2 locus is counted, not listed; above the box a sweep
    # at the box counts the box's locus
    monkeypatch.delenv("MARKOFF_CACHE", raising=False)
    real = orbits._sweep
    calls = []

    def counting(surface, B):
        calls.append(B)
        return real(surface, B)

    monkeypatch.setattr(orbits, "_sweep", counting)
    code, out, _ = run_cli(capsys, "scan", *argv)
    assert code == 0
    box = int(argv[argv.index("--box") + 1])
    height = int(argv[argv.index("--cap-height") + 1]) if "--cap-height" in argv else box
    sweeps = [height, box] if height > box else [box]
    assert calls == sweeps * len(json.loads(out)["rows"])


def _listing_reports(surface, box, height) -> dict:
    """class_number's reports for both sets at cap height `height`, with a
    count cap that truncates no search."""
    reports = {name: orbits.class_number(surface, name, box, orbits.Caps(height, 10**6))
               for name in GENERATOR_SETS}
    assert not any(report.caps_hit for report in reports.values())
    return reports


def _assert_row_matches_listing(kind, params, gens, box, height):
    """A scan row, which counts the +-2 locus, against the row built from
    class_number, which lists every box point."""
    reports = _listing_reports(cli.build_surface(kind, params), box, height)
    want = {
        "k": cli._row_k(kind, params),
        "h_star_gamma_poly": reports["gamma_poly"].class_number_star,
        "h_star_gamma_prime": reports["gamma_prime"].class_number_star,
        "exceptional": len(reports[gens].exceptional),
        "caps_hit": False,
        "representatives": [list(p) for p, _ in reports[gens].representatives],
    }
    assert cli._scan_one((kind, params, gens, box, height)) == want, (params, gens, box, height)


def _assert_labels_match_listing(kind, params, box, height):
    """The labels a scan row reads, for both generator sets, against
    class_number's: exceptional count, and representatives with their
    class sizes.  Returns the labels."""
    surface = cli.build_surface(kind, params)
    labels = orbits._scan_labels(surface, box, height)
    for gens, report in _listing_reports(surface, box, height).items():
        want = (len(report.exceptional), report.representatives)
        assert labels[gens] == want, (params, gens, box, height)
    return labels


# the row's own generator set alternates with k, so each set is checked on half the grid
_GENS_BY_PARITY = ("gamma_prime", "gamma_poly")


@pytest.mark.parametrize("box", [0, 1, 2, 3, 1000, 2000])
def test_scan_rows_match_listing_torus_grid(box):
    for k in range(-50, 51):
        _assert_row_matches_listing("11", (k,), _GENS_BY_PARITY[k % 2], box, box)


@pytest.mark.parametrize("box,height", [(0, 5), (3, 10), (5, 20), (10, 30), (20, 80),
                                        (30, 200), (100, 400), (50, 51), (40, 40), (40, 10)])
def test_scan_rows_match_listing_cap_height(box, height):
    # a row cut to the box from the sweep at a cap height above it
    for k in range(-12, 25):
        _assert_row_matches_listing("11", (k,), _GENS_BY_PARITY[k % 2], box, height)
        _assert_labels_match_listing("11", (k,), box, height)


def test_scan_labels_match_listing_cap_height_random_spheres():
    # random sphere tuples at random boxes, the cap height 0 to 60 above;
    # on some rows the points above the box join box points
    rng, joined = random.Random(29), 0
    for i in range(300):
        box = rng.randint(0, 40)
        params = tuple(rng.randint(-6, 6) for _ in range(4))
        labels = _assert_labels_match_listing("04", params, box, box + (0, 1, 5, 20, 60)[i % 5])
        joined += labels != orbits._scan_labels(cli.build_surface("04", params), box, box)
    assert joined >= 10


@pytest.mark.parametrize("height", [200, 230])
def test_scan_rows_match_listing_pinned_sphere_strata(height):
    # the sphere tuple of most box points in each of the benchmark's 40 strata
    scan = json.loads((pathlib.Path(__file__).parents[1] / "bench" / "pinned.json").read_text())["scan"]
    sphere = scan["sphere"]
    keys = sorted(sphere, key=lambda key: (sphere[key][3], key))
    for i in range(1, 41):
        params = tuple(map(int, keys[i * len(keys) // 40 - 1].split(",")))
        _assert_row_matches_listing("04", params, _GENS_BY_PARITY[i % 2], scan["sphere_box"],
                                    height)


def test_scan_labels_match_listing_every_pinned_sphere_tuple():
    # all 2401 sphere tuples of the benchmark's pinned answers, at a small box
    scan = json.loads((pathlib.Path(__file__).parents[1] / "bench" / "pinned.json").read_text())["scan"]
    for key in scan["sphere"]:
        _assert_labels_match_listing("04", tuple(map(int, key.split(","))), 30, 30)


@pytest.mark.parametrize("j", [0, 1, 3])
def test_scan_labels_match_listing_big_k(j):
    # k = 2^70 + 2 + j^2, beyond int64; k - 2 is a square for j = 0
    for box, height in ((0, 0), (2, 2), (3, 3), (50, 50), (100, 100), (0, 5), (3, 10),
                        (50, 120)):
        _assert_labels_match_listing("11", (2**70 + 2 + j * j,), box, height)


def _assert_serving_rule(monkeypatch, kind, params, box):
    # at cap heights below, at and above the box the row is the listing's,
    # and it runs no _label_classes and no _search but its sweeps' for
    # either set
    surface = cli.build_surface(kind, params)
    real_search, searches = orbits._search, [0]

    def label(*args):
        raise AssertionError("a scan row labelled a set by search")

    def search(*args, **kwargs):
        searches[0] += 1
        return real_search(*args, **kwargs)

    monkeypatch.setattr(orbits, "_search", search)
    for height in (box - 1, box, box + 1, 4 * box):
        searches[0] = 0
        orbits._sweep(surface, max(height, box))
        if height > box:
            orbits._sweep(surface, box)
        swept = searches[0]
        for gens in GENERATOR_SETS:
            _assert_row_matches_listing(kind, params, gens, box, height)
            searches[0] = 0
            with monkeypatch.context() as m:
                m.setattr(orbits, "_label_classes", label)
                cli._scan_one((kind, params, gens, box, height))
            assert searches[0] == swept


@pytest.mark.parametrize("k", [3, 8])
def test_scan_serving_rule_at_its_boundary(monkeypatch, k):
    # the sweeps serve every row, whatever the cap height; neither set is
    # labelled by search (k = 3 has exceptional points, k = 8 classes)
    _assert_serving_rule(monkeypatch, "11", (k,), 20)


@pytest.mark.parametrize("params, box", [((-10, 1, 2, -10), 20), ((1, -3, -4, 4), 5)])
def test_sphere_scan_serving_rule_at_its_boundary(monkeypatch, params, box):
    # a sphere row labels neither set by search, as the walk labels
    # gamma_poly; each row has exceptional points, classes and a
    # locus-seeded cluster that gives a class
    _assert_serving_rule(monkeypatch, "04", params, box)


def test_scan_unwritable_cache(tmp_path, capsys):
    # the rows a scan computed print even when the cache cannot store them
    cache = tmp_path / "missing-dir" / "cache.json"
    argv = ["scan", "--k", "-2", "--box", "5"]
    _, fresh, _ = run_cli(capsys, *argv)
    code, out, err = run_cli(capsys, *argv, "--cache", str(cache))
    assert (code, out) == (0, fresh)
    assert err == (f"warning: cannot write cache {cache}: No such file or directory; "
                   "rows not stored\n")
    assert run_cli(capsys, *argv, "--cache", str(cache)) == (0, fresh, err)


def test_scan_torn_last_line_is_skipped(tmp_path, capsys):
    # a writer killed mid-line leaves a torn last line: it costs that line
    # only, and the next append starts a line of its own
    cache = tmp_path / "cache.json"
    argv = ["scan", "--k-range", "-2..0", "--box", "10"]
    _, fresh, _ = run_cli(capsys, *argv)
    assert run_cli(capsys, "scan", "--k", "-2", "--box", "10", "--cache", str(cache))[0] == 0
    torn = cache.read_text().strip()[:-20]
    with cache.open("a") as fh:
        fh.write(torn)
    number = cache.read_text().splitlines().index(torn) + 1
    code, out, err = run_cli(capsys, *argv, "--cache", str(cache))
    assert (code, out) == (0, fresh)
    assert err == f"warning: malformed line {number} in cache {cache}; skipped\n"
    log = cache.read_text()
    assert log.splitlines().count(torn) == 1
    assert len(cache_rows(log.replace(torn + "\n", ""))) == 3


def test_scan_cache_skips_stale_lines_unparsed(tmp_path, capsys):
    # a line written under another source hash is skipped before parsing,
    # so even a torn one is silent, and it stays in the log
    argv = ["scan", "--k", "-2", "--box", "10"]
    _, fresh, _ = run_cli(capsys, *argv)
    cache = tmp_path / "cache.json"
    key = cli._row_key("11", (-2,), "gamma_prime", 10, 10, "other-code")
    stale = json.dumps([key, json.loads(fresh)["rows"][0]], sort_keys=True)
    cache.write_text(stale[:-20] + "\n" + stale + "\n")
    assert run_cli(capsys, *argv, "--cache", str(cache)) == (0, fresh, "")
    assert cache.read_text().splitlines()[:2] == [stale[:-20], stale]


def test_scan_cache_parses_only_requested_keys(tmp_path, capsys, monkeypatch):
    # in a log of 2,000 rows of this code under other keys, two lines under
    # the key asked for and a torn line under another key, only the two are
    # parsed, the later one is served and the torn one is silent
    argv = ["scan", "--k", "-2", "--box", "10"]
    _, fresh, _ = run_cli(capsys, *argv)
    row, code_hash = json.loads(fresh)["rows"][0], cli._source_hash()
    key = cli._row_key("11", (-2,), "gamma_prime", 10, 10, code_hash)
    others = [json.dumps([cli._row_key("11", (k,), "gamma_prime", 10, 10, code_hash),
                          row], sort_keys=True) for k in range(1, 2001)]
    earlier, later = ({**row, "h_star_gamma_prime": n} for n in (98, 99))
    cache = tmp_path / "cache.json"
    cache.write_text("\n".join([json.dumps([key, earlier]), *others[:1000], others[0][:-20],
                                json.dumps([key, later]), *others[1000:]]) + "\n")
    loads, parsed = json.loads, []

    def counting_loads(text, *args, **kwargs):
        parsed.append(text)
        return loads(text, *args, **kwargs)

    monkeypatch.setattr(cli.json, "loads", counting_loads)
    code, out, err = run_cli(capsys, *argv, "--cache", str(cache))
    monkeypatch.setattr(cli.json, "loads", loads)
    assert (code, err) == (0, "")
    assert len(parsed) == 2
    assert json.loads(out)["rows"][0] == later


def test_scan_old_format_cache_warns(tmp_path, capsys):
    # a cache of the single-document format reads as one malformed line,
    # and the scan appends after it
    argv = ["scan", "--k", "-2", "--box", "10"]
    _, fresh, _ = run_cli(capsys, *argv)
    cache = tmp_path / "cache.json"
    key = cli._row_key("11", (-2,), "gamma_prime", 10, 10, cli._source_hash())
    old = json.dumps({"version": "0.1.0", "entries": {key: json.loads(fresh)["rows"][0]}})
    cache.write_text(old)
    warning = f"warning: malformed line 1 in cache {cache}; skipped\n"
    assert run_cli(capsys, *argv, "--cache", str(cache)) == (0, fresh, warning)
    assert run_cli(capsys, *argv, "--cache", str(cache)) == (0, fresh, warning)
    first, _, rest = cache.read_text().partition("\n")
    assert first == old
    assert cache_rows(rest) == {key: json.loads(fresh)["rows"][0]}


def test_scan_cache_leaves_no_side_files(tmp_path, capsys):
    # no lock file and no temp file: the log is the only file a scan writes
    cache = tmp_path / "cache.json"
    for k in ("-2", "0", "3"):
        assert run_cli(capsys, "scan", "--k", k, "--box", "10", "--cache", str(cache))[0] == 0
    assert os.listdir(tmp_path) == ["cache.json"]
    assert stat.S_IMODE(cache.stat().st_mode) == 0o600
    assert len(cache_rows(cache.read_text())) == 3


def test_scan_cache_symlink_is_refused(tmp_path, capsys):
    # a symlink planted at the cache path is never written through
    target = tmp_path / "target"
    target.write_text(json.dumps(["another key", {}]) + "\n")
    before = target.read_bytes()
    link = tmp_path / "cache.json"
    link.symlink_to(target)
    argv = ["scan", "--k", "-2", "--box", "5"]
    _, fresh, _ = run_cli(capsys, *argv)
    code, out, err = run_cli(capsys, *argv, "--cache", str(link))
    assert (code, out) == (0, fresh)
    assert err == (f"warning: cannot write cache {link}: Too many levels of symbolic links; "
                   "rows not stored\n")
    assert target.read_bytes() == before and link.is_symlink()


def test_concurrent_scans_keep_every_row(tmp_path):
    # two processes that both read the empty cache before either writes it
    cache = tmp_path / "cache.json"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    env.pop(cli.CACHE_ENV, None)
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "markoff.cli", "scan", "--k-range", ks, "--box", "400",
             "--cache", str(cache)],
            stdout=subprocess.DEVNULL, env=env,
        )
        for ks in ("-2..9", "10..21")
    ]
    try:
        codes = [proc.wait(timeout=120) for proc in procs]
    finally:
        for proc in procs:
            proc.kill()
    assert codes == [0, 0]
    assert len(cache_rows(cache.read_text())) == 24


def test_scan_store_parses_unchanged_cache_once(tmp_path, capsys, monkeypatch):
    # a scan parses each line of the cache log under a key it asks for
    # once, when it starts; storing its cold row appends to the log
    # without reading it
    cache = tmp_path / "cache.json"
    argv = ["scan", "--box", "10", "--cache", str(cache)]
    assert run_cli(capsys, *argv, "--k", "-2")[0] == 0
    loads, parsed = json.loads, []

    def counting_loads(text, *args, **kwargs):
        parsed.append(text)
        return loads(text, *args, **kwargs)

    monkeypatch.setattr(cli.json, "loads", counting_loads)
    assert run_cli(capsys, *argv, "--k-range", "-2..-1")[0] == 0
    assert len(parsed) == 1
    monkeypatch.setattr(cli.json, "loads", loads)
    assert len(cache_rows(cache.read_text())) == 2


def test_scan_parallel_matches_serial(capsys):
    argv = ["scan", "--type", "11", "--k-range", "-1..1", "--box", "20"]
    _, serial, _ = run_cli(capsys, *argv)
    _, parallel, _ = run_cli(capsys, *argv, "--jobs", "2")
    assert serial == parallel


def test_main_calls_share_no_state(capsys):
    # one parser serves every call in a process; no option may leak
    assert cli.build_parser() is cli.build_parser()
    argv = ["scan", "--k", "-2", "--box", "5"]
    code, out, _ = run_cli(capsys, *argv, "--gens", "gamma_poly")
    assert code == 0 and json.loads(out)["generators"] == "gamma_poly"
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["generators"] == "gamma_prime"
    with pytest.raises(SystemExit):
        main(["scan", "--gens", "no-such-set"])
    assert "invalid choice" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["generators"] == "gamma_prime"


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
    (["scan", "--gens", "nope"], "argument --gens: invalid choice: 'nope'"),
    (["scan", "--k", "-2", "--bogus"], "unrecognized arguments: --bogus"),
    (["scan", "--box", "x"], "argument --box: invalid int value: 'x'"),
    (["reduce", "--k", "-2", "--point", "3,6,15", "--cap-height", "5"],
     "unrecognized arguments: --cap-height 5"),
    (["reduce", "--k", "-2", "--point", "3,6,15", "--cap-count", "5"],
     "unrecognized arguments: --cap-count 5"),
    (["scan", "--k", "-2", "--box", "10", "--cap-count", "5"],
     "unrecognized arguments: --cap-count 5"),
    (["orbit", "--k", "-2", "--start", "0,0,0", "--cap-steps", "5"],
     "unrecognized arguments: --cap-steps 5"),
    (["equiv", "--k", "-2", "--p", "0,0,0", "--q", "0,0,0", "--cap-steps", "5"],
     "unrecognized arguments: --cap-steps 5"),
    (["scan", "--type", "11", "--k", "7", "--k-range", "0..1"],
     "argument --k-range: not allowed with argument --k"),
    (["scan", "--type", "04", "--k", "0,0,0,0", "--k-range", "0..3"],
     "argument --k-range: not allowed with argument --k"),
], ids=[
    "no-command", "unknown-command", "bad-choice", "unknown-flag", "bad-int",
    "reduce-cap-height", "reduce-cap-count", "scan-cap-count", "orbit-cap-steps",
    "equiv-cap-steps", "k-with-k-range", "sphere-k-with-k-range",
])
def test_usage_errors_exit_one(capsys, argv, message):
    # exit code 2 means a cap was hit, so a usage error must not use it
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 1
    assert captured.out == ""
    assert captured.err.startswith("usage: markoff")
    assert f"error: {message}" in captured.err


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["scan", "--help"]])
def test_help_and_version_exit_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out


# a few valid argv per command; together they take every branch that reads an option
_GUARD_ARGV = [
    ["reduce", "--k", "-2", "--point", "3,6,15", "--format", "json", "--cap-steps", "9"],
    ["reduce", "--type", "04", "--k", "0.0,0.0,0.0,0.0", "--point", "2.0,0.0,0.0",
     "--complex"],
    ["scan", "--k", "-2", "--box", "5", "--format", "csv"],
    ["scan", "--k-range", "-1..0", "--box", "5", "--gens", "gamma_poly", "--cap-height", "9"],
    ["verify", "--trials", "2", "--seed", "1"],
    ["lines", "--k", "6", "--format", "json"],
    ["orbit", "--k", "-2", "--start", "3,3,3", "--cap-height", "6", "--format", "csv"],
    ["equiv", "--k", "-2", "--p", "3,3,3", "--q", "3,6,15", "--gens", "gamma_poly"],
]


def _options_read(argv):
    """(option dests the command declares, attributes its function reads).

    Reads are recorded only while args.func runs, so the range checks of
    _check_args do not count as a use."""
    reads = None

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            if reads is not None:
                reads.add(name)
            return super().__getattribute__(name)

    args = cli.build_parser().parse_args(argv, namespace=Recording())
    declared = set(vars(args)) - {"command", "func"}
    cli._check_args(args)
    reads = set()
    args.func(args)
    return declared, reads


def test_every_declared_option_is_read(capsys, monkeypatch):
    # an option a command accepts and never reads silently changes nothing
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    declared, read = {}, {}
    for argv in _GUARD_ARGV:
        options, reads = _options_read(argv)
        declared.setdefault(argv[0], set()).update(options)
        read.setdefault(argv[0], set()).update(reads)
    capsys.readouterr()
    assert set(declared) == {"reduce", "scan", "verify", "lines", "orbit", "equiv"}
    assert {cmd: options - read[cmd] for cmd, options in declared.items()} == {
        cmd: set() for cmd in declared
    }


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--trials", "60", "--seed", "3")
    assert code == 0
    assert "9/9 suites passed" in out


def test_verify_runs_every_registry_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--trials", "5")
    assert code == 0
    assert out.splitlines() == [
        f"pass  {name} (5 trials)" for name, _ in IDENTITY_SUITES
    ] + ["9/9 suites passed"]


def _faults():
    """One corrupted ingredient per identity suite, as pytest params
    (suite, name in markoff.trace_algebra, replacement)."""
    ta = trace_algebra
    f3, comm, cubic = ta.f3_relations, ta.commutator_trace, ta.make_cubic04
    lift11, lift04 = ta.lift_twist_11, ta.lift_twist_04
    faults = [
        ("trace-product identity", "trace_product_identity",  # the AB^-1 term dropped
         lambda A, B: ta.mat_trace(A) * ta.mat_trace(B) - ta.mat_trace(ta.mat_mul(A, B))),
        ("rank-3 trace relations", "f3_relations",  # a third matrix of determinant 2
         lambda A1, A2, A3: f3(A1, A2, ta.mat_mul(A3, ta.Mat2(2, 0, 0, 1)))),
        ("commutator boundary law", "commutator_trace",
         lambda A, B: comm(A, ta.mat_mul(B, B))),
        ("quad boundary residual", "make_cubic04",  # d, which no move reads, off by one
         lambda *ks: cubic(*ks)._replace(d=cubic(*ks).d + 1)),
        ("torus lift square", "lift_twist_11",  # the other direction
         lambda which, pair, direction=1: lift11(which, pair, -direction)),
        ("sphere lift square", "lift_twist_04",
         lambda index, q, direction=1: lift04(index, q, -direction)),
        ("torus twist decomposition", "_TORUS_TWIST_WORDS",  # twist a ends in Vy
         {**ta._TORUS_TWIST_WORDS, "a": parse_word("Pyz Vy", "11")}),
        ("sphere twist decomposition", "_SPHERE_TWIST_WORDS",  # twist 1 reversed
         {**ta._SPHERE_TWIST_WORDS, 1: parse_word("Vz Vy", "04")}),
        ("move invariance", "apply_move",
         lambda surface, m, p: Point3(p.x + 1, p.y, p.z)),
    ]
    return [pytest.param(*fault, id=fault[0]) for fault in faults]


@pytest.mark.parametrize("suite, name, fault", _faults())
def test_verify_fails_a_broken_suite(capsys, monkeypatch, suite, name, fault):
    # each suite checks what it claims: one corrupted ingredient fails it.
    # A quad point off its surface also fails move invariance, whose sphere
    # half moves that point and checks its residual again.
    monkeypatch.setattr(trace_algebra, name, fault)
    failed = {suite} | ({"move invariance"} if suite == "quad boundary residual" else set())
    code, out, _ = run_cli(capsys, "verify", "--trials", "20")
    assert code == 1
    assert out.splitlines() == [
        f"{'FAIL' if n in failed else 'pass'}  {n} (20 trials)" for n, _ in IDENTITY_SUITES
    ] + [f"{9 - len(failed)}/9 suites passed"]


def test_lines_text(capsys):
    code, out, _ = run_cli(capsys, "lines", "--k", "6")
    assert code == 0
    assert len([l for l in out.splitlines() if "[integral]" in l]) == 4
    code, out, _ = run_cli(capsys, "lines", "--k", "2")
    assert len([l for l in out.splitlines() if "[integral]" in l]) == 2
    code, out, _ = run_cli(capsys, "lines", "--k", "1")
    assert code == 0
    assert "no integral lines" in out


def test_lines_json(capsys):
    code, out, _ = run_cli(capsys, "lines", "--k", "11", "--format", "json")
    doc = json.loads(out)
    assert doc["square_root"] == 3
    assert len(doc["lines"]) == 4


def test_orbit_dump(capsys):
    code, out, _ = run_cli(
        capsys,
        "orbit", "--type", "11", "--k", "-2", "--start", "3,3,3",
        "--gens", "gamma_poly", "--cap-height", "20",
    )
    assert code == 2  # the orbit continues above the cap
    doc = json.loads(out)
    assert doc["caps_hit"] is True
    assert {"point": [3, 3, 3], "word": ""} in doc["points"]
    assert any(p["point"] == [3, 3, 6] for p in doc["points"])


def test_orbit_csv(capsys):
    code, out, err = run_cli(
        capsys, "orbit", "--k", "-2", "--start", "3,3,3", "--cap-height", "6",
        "--format", "csv",
    )
    assert (code, err) == (2, "")
    # gamma_prime on the torus searches canonical points: each one's
    # G-orbit is listed in turn, and the word to h.r is h's own word (one
    # permutation, then one sign change) and the Vieta walk to the raw
    # point r conjugated by h
    assert out.splitlines() == [
        "x,y,z,word",
        "3,3,3,", "-3,-3,3,Sxy", "3,-3,-3,Syz", "-3,3,-3,Sxz",
        "3,3,6,Pxz Vz", "-3,-3,6,Pxz Sxy Vz", "3,-3,-6,Pxz Syz Vz",
        "-3,3,-6,Pxz Sxz Vz", "3,6,3,Pxyz Vy", "-3,-6,3,Pxyz Sxy Vy",
        "3,-6,-3,Pxyz Syz Vy", "-3,6,-3,Pxyz Sxz Vy", "6,3,3,Vx",
        "-6,-3,3,Sxy Vx", "6,-3,-3,Syz Vx", "-6,3,-3,Sxz Vx",
    ]


@pytest.mark.parametrize("gens", GENERATOR_SETS)
def test_orbit_csv_words_replay(capsys, gens):
    # every printed word parses and replays from the start to its row's point
    code, out, err = run_cli(
        capsys, "orbit", "--type", "11", "--k", "3", "--start", "-2,-1,0",
        "--gens", gens, "--cap-height", "100", "--format", "csv",
    )
    assert (code, err) == (2, "")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["x", "y", "z", "word"] and len(rows) > 500
    surface, start = Markoff11(3), Point3(-2, -1, 0)
    for *point, text in rows[1:]:
        assert apply_word(surface, parse_word(text, "11"), start) == tuple(map(int, point))


def test_orbit_off_surface_error(capsys):
    code, out, err = run_cli(capsys, "orbit", "--k", "-2", "--start", "1,1,1")
    assert (code, out) == (1, "")
    assert err == "error: point (1, 1, 1) is not on the surface (residual 2)\n"


def test_orbit_closed_exit_zero(capsys):
    code, out, _ = run_cli(
        capsys, "orbit", "--type", "11", "--k", "-2", "--start", "0,0,0",
        "--cap-height", "50",
    )
    assert code == 0
    assert json.loads(out)["points"] == [{"point": [0, 0, 0], "word": ""}]


def test_equiv_yes(capsys):
    code, out, _ = run_cli(
        capsys,
        "equiv", "--type", "11", "--k", "-2", "--p", "3,3,3", "--q", "3,6,15",
        "--cap-height", "100",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["equivalent"] is True
    assert doc["word"]


def test_equiv_no_within_caps(capsys):
    code, out, _ = run_cli(
        capsys,
        "equiv", "--type", "11", "--k", "-2", "--p", "0,0,0", "--q", "3,3,3",
    )
    assert code == 2
    doc = json.loads(out)
    assert doc == {"equivalent": False, "exhausted": True, "pruned": False}


def test_equiv_off_surface_error(capsys):
    code, _, err = run_cli(
        capsys,
        "equiv", "--type", "11", "--k", "-2", "--p", "1,1,1", "--q", "3,3,3",
    )
    assert code == 1
    assert "not on the surface" in err


def test_scan_gamma_poly_rows(capsys):
    code, out, _ = run_cli(
        capsys,
        "scan", "--type", "11", "--k", "-2", "--box", "30", "--gens", "gamma_poly",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["generators"] == "gamma_poly"
    row = doc["rows"][0]
    # representatives come from the poly run; both counts still reported
    assert row["h_star_gamma_poly"] == len(row["representatives"])
    assert row["h_star_gamma_prime"] == 2


@pytest.mark.parametrize("argv, message", [
    (["reduce", "--k", "-2", "--point", "3,6,15", "--cap-steps", "-1"],
     "--cap-steps must be nonnegative"),
    (["orbit", "--k", "-2", "--start", "3,3,3", "--cap-count", "0"],
     "--cap-count must be positive"),
    (["scan", "--k", "-2", "--box", "5", "--jobs", "0"], "--jobs must be positive"),
    (["verify", "--trials", "0"], "--trials must be positive"),
], ids=["cap-steps", "cap-count", "jobs", "trials"])
def test_cap_and_jobs_bounds_named(capsys, argv, message):
    assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")


def test_invalid_config_exits_one(capsys):
    code, _, err = run_cli(capsys, "scan", "--k", "-2", "--box", "-5")
    assert code == 1 and "--box" in err
    code, _, err = run_cli(
        capsys, "orbit", "--k", "-2", "--start", "0,0,0", "--cap-height", "-1"
    )
    assert code == 1 and "cap-height" in err
    code, _, err = run_cli(
        capsys, "equiv", "--k", "-2", "--p", "0,0,0", "--q", "0,0,0", "--cap-count", "0"
    )
    assert code == 1
    code, _, err = run_cli(capsys, "scan", "--type", "04", "--k-range", "0..3")
    assert code == 1 and err == "error: --k-range needs --type 11\n"


def _documented_examples():
    """The `markoff ...` lines of the cli docstring and of README's
    Command line block."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = cli.__doc__.splitlines() + block.splitlines()
    return [line.split() for line in lines if line.strip().startswith("markoff ")]


def test_documented_examples_run(capsys, monkeypatch):
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    examples = _documented_examples()
    assert len(examples) >= 16
    for argv in examples:
        code, _, err = run_cli(capsys, *argv[1:])
        assert code != 1, (" ".join(argv), err)


def test_only_main_prints_errors():
    # commands raise; main alone turns an exception into an error: line
    def error_literals(node):
        return [n.lineno for n in ast.walk(node) if isinstance(n, ast.Constant)
                and isinstance(n.value, str) and n.value.startswith("error:")]

    tree = ast.parse(pathlib.Path(cli.__file__).read_text())
    main_def = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
    assert len(error_literals(main_def)) == 1
    assert error_literals(tree) == error_literals(main_def)


def _break_tree_edge(monkeypatch):
    # the search's last tree edge names another Vieta move, which changes
    # another coordinate of the parent, so the edge no longer gives its point
    def search(*args, **kwargs):
        run = orbits.orbit_bfs(*args, **kwargs)
        p, (parent, g) = list(run.parents.items())[-1]
        run.parents[p] = (parent, next(m for m in VIETA_MOVES if m != g))
        return run

    monkeypatch.setattr(cli, "orbit_bfs", search)


def _break_sign_word(monkeypatch):
    # each G symmetry's stored word with the sign change Sxy names Syz instead
    sxy, syz = Move("S", (0, 1)), Move("S", (1, 2))
    monkeypatch.setattr(orbits, "_G_GROUP", {h: tuple(syz if m == sxy else m for m in word)
                                             for h, word in orbits._G_GROUP.items()})


def _break_sweep(change):
    def fault(monkeypatch):
        real = orbits._sweep

        def sweep(surface, B):
            locus, seeded, components = real(surface, B)
            return locus, change(seeded), components

        monkeypatch.setattr(orbits, "_sweep", sweep)
        monkeypatch.delenv(cli.CACHE_ENV, raising=False)

    return fault


def _other_move(seeded):
    # the last locus-seeded edge names another Vieta move
    p, (parent, g) = list(seeded.items())[-1]
    return {**seeded, p: (parent, next(m for m in VIETA_MOVES if m != g))}


def _child_first(seeded):
    # a point held before the parent of its edge, which is off the locus:
    # each edge still checks, but its chain need not end on the locus
    p, edge = next((p, edge) for p, edge in seeded.items() if edge[0] in seeded)
    return {p: edge, **seeded}


@pytest.mark.parametrize("argv, message, fault", [
    (["reduce", "--k", "-2", "--point", "3,6,15"], "descent certificate failed to replay",
     _relabel_vieta),
    (["orbit", "--k", "-2", "--start", "3,3,3", "--cap-height", "6"],
     "orbit certificate failed to replay", _break_tree_edge),
    (["orbit", "--k", "-2", "--start", "3,3,3", "--cap-height", "6"],
     "orbit certificate failed to replay", _break_sign_word),
    (["scan", "--k", "3", "--box", "30"], "exceptional witness failed to replay",
     _break_sweep(_other_move)),
    (["scan", "--k", "3", "--box", "30"], "exceptional witness failed to replay",
     _break_sweep(_child_first)),
], ids=["reduce", "orbit", "orbit-symmetry", "scan", "scan-order"])
def test_certificate_replay_failure_exits_one(capsys, monkeypatch, argv, message, fault):
    fault(monkeypatch)
    assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")


def test_import_defers_pool_and_tempfile(tmp_path):
    # only a parallel scan needs the pool, and a cold scan that stores its
    # rows needs no tempfile either; -S keeps site hooks from importing
    # either first
    src = os.path.dirname(os.path.dirname(cli.__file__))
    cache = tmp_path / "cache.json"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import markoff.cli; "
            "deferred = lambda: sorted({'concurrent.futures', 'tempfile'} & set(sys.modules)); "
            "print(deferred(), file=sys.stderr); "
            "markoff.cli.main(['scan', '--k', '-2', '--box', '5', '--cache', sys.argv[2]]); "
            "print(deferred(), file=sys.stderr)")
    done = subprocess.run([sys.executable, "-I", "-S", "-c", code, src, str(cache)],
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stderr == "[]\n[]\n"
    assert len(cache_rows(cache.read_text())) == 1


def test_import_loads_no_dataclasses_or_inspect():
    # every command pays for importing markoff.cli: the value types are
    # plain classes and namedtuple subclasses, so it loads neither
    # dataclasses nor the inspect it pulls in, nor typing; this checks
    # sys.modules, not a time, so it cannot flake
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import markoff.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-I", "-S", "-c", code, src],
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout == "[]\n"


def test_scan_without_cache_hashes_no_sources(monkeypatch):
    # only the cache keys need the source hash, so a scan with neither
    # --cache nor MARKOFF_CACHE never imports hashlib, and prints the same
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    argv = ["scan", "--k", "-2", "--box", "5"]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import markoff.cli; "
            f"markoff.cli.main({argv!r}); print('hashlib' in sys.modules, file=sys.stderr)")
    done = subprocess.run([sys.executable, "-I", "-S", "-c", code, src],
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stderr == "False\n"
    expected = _golden_run(argv)
    assert expected["exit"] == 0 and done.stdout == expected["stdout"]


_GOLDEN =pathlib.Path(__file__).with_name("cli_golden.json")


def _golden_run(argv):
    """The exit code, stdout and stderr of one in-process markoff call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # usage errors and --version
            code = exc.code
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_cli_golden_outputs(monkeypatch):
    # every command and format, exits 0, 1 and 2, and each error: reachable
    # from the command line, byte for byte as recorded in cli_golden.json
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
    golden = json.loads(_GOLDEN.read_text())
    assert len(golden) >= 25
    for entry in golden:
        assert _golden_run(entry["argv"]) == entry


if __name__ == "__main__":
    # record the current outputs for the argv lists in cli_golden.json:
    # PYTHONPATH=src python tests/test_cli.py
    os.environ.pop(cli.CACHE_ENV, None)
    os.environ["COLUMNS"] = "80"
    entries = [_golden_run(entry["argv"]) for entry in json.loads(_GOLDEN.read_text())]
    _GOLDEN.write_text(json.dumps(entries, indent=1) + "\n")
