"""The benchmark's checks on the answers pinned in bench/pinned.json.

bench/pinned.json holds answers written by the benchmark's independent
oracle (bench/oracle.py).  The orbit-search and scan workloads check every
result against them; these tests make the same checks on the first roots
of each orbit case, on every torus scan row and on one sphere tuple from
each point-count stratum, so a break of either contract fails here as
well.  The file is only read.
"""

import json
import pathlib
import random

import pytest

from markoff.cli import CACHE_ENV, build_surface, main
from markoff.moves import GENERATOR_SETS, apply_word, parse_word
from markoff.orbits import Caps, equivalent, is_exceptional, orbit_bfs
from markoff.surfaces import Point3, linf_height, on_surface

PINNED = json.loads(
    (pathlib.Path(__file__).resolve().parents[1] / "bench" / "pinned.json").read_text()
)


def _replays(surface, word, p, q):
    return apply_word(surface, parse_word(str(word), surface.kind), p) == q


@pytest.mark.parametrize("case", PINNED["orbit"], ids=lambda case: case["name"])
def test_pinned_orbit_answers(case):
    surface = build_surface(case["type"], tuple(case["params"]))
    roots = [Point3(*r) for r in case["roots"][:3]]
    caps = Caps(height=case["cap"])
    rng = random.Random(0)
    for gens in GENERATOR_SETS:
        component = case["component"][gens]
        for i, root in enumerate(roots):
            run = orbit_bfs(surface, gens, root, cap_height=case["cap"])
            assert len(run) == case["size"][gens][i]
            points = run.points()
            assert len(points) == len(run)
            for p in rng.sample(points, min(3, len(points))):
                assert _replays(surface, run.word_to(p), root, p)
            for j, other in enumerate(roots):
                res = equivalent(surface, gens, root, other, caps)
                assert res.equivalent == (component[i] == component[j])
                assert _replays(surface, res.word, root, other) if res.equivalent else res.exhausted
    for i, root in enumerate(roots):
        res = is_exceptional(surface, root, caps)
        assert res.found == case["exceptional"][i]
        if res.found:
            hit = apply_word(surface, res.word, root)
            assert 2 in hit or -2 in hit
        else:
            assert res.exhausted


def _scan_cases():
    """(type, params text, box): every pinned torus k, and the sphere tuple
    of most box points in each of 12 equal strata of the pinned tuples
    ordered by box point count, the largest stratum included."""
    scan = PINNED["scan"]
    for k in scan["torus"]:
        yield "11", k, scan["torus_box"]
    sphere = scan["sphere"]
    keys = sorted(sphere, key=lambda key: (sphere[key][3], key))
    for i in range(1, 13):
        yield "04", keys[i * len(keys) // 12 - 1], scan["sphere_box"]


@pytest.mark.parametrize("kind,params,box", list(_scan_cases()),
                         ids=lambda v: str(v).replace(",", " "))
def test_pinned_scan_answers(capsys, monkeypatch, kind, params, box):
    monkeypatch.delenv(CACHE_ENV, raising=False)
    assert main(["scan", "--type", kind, f"--k={params}", "--box", str(box)]) in (0, 2)
    (row,) = json.loads(capsys.readouterr().out)["rows"]
    got = [row["h_star_gamma_poly"], row["h_star_gamma_prime"], row["exceptional"]]
    assert got == PINNED["scan"]["torus" if kind == "11" else "sphere"][params][:3]
    surface = build_surface(kind, tuple(int(v) for v in params.split(",")))
    reps = [Point3(*p) for p in row["representatives"]]
    assert len(reps) == row["h_star_gamma_prime"]
    assert all(on_surface(surface, p) and linf_height(p) <= box for p in reps)
