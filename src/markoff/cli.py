"""Command-line front end.

    markoff reduce --type 11 --k -2 --point 3,6,15
    markoff reduce --type 11 --k -2 --point -7+4i,4+7i,-56-33i --complex
    markoff scan   --type 11 --k-range -2..2 --box 100 --format csv
    markoff scan   --type 04 --k 0,0,0,0 --box 20
    markoff verify --trials 1000 --seed 7
    markoff lines  --k 6
    markoff orbit  --type 11 --k -2 --start 3,3,3 --gens gamma_poly --cap-height 100
    markoff equiv  --type 11 --k -2 --p 3,3,3 --q 3,6,15

Exit codes: 0 success, 1 usage, input or math error, 2 caps hit (reduce,
orbit and equiv; a scan row's caps_hit is always false).  reduce takes the
step cap --cap-steps, orbit and equiv the search caps --cap-height and
--cap-count, and scan --cap-height alone.  Scan rows are cached per
(surface, generator set, box, cap height, hash of the package sources) in
the log named by --cache or the MARKOFF_CACHE environment variable.  A
scan appends the rows it computed under a lock on the log, and a later
line wins.  A scan parses only the lines under the keys it asks for; a
malformed one of those, a malformed row, or a log that cannot be read or
written, is a warning.  A warm scan reproduces cached rows byte for byte.
Complex literals: re+imi, e.g. 1.5+0.25i.

verify runs each suite of trace_algebra.IDENTITY_SUITES with a fresh
random.Random(--seed) and prints one pass/FAIL line per suite.  The
commands read their options from the parsed arguments; each command
declares only the options it reads, argparse holds every default and
`_check_args` rejects out-of-range values (exit 1).  No command prints
an error: each raises MarkoffError or ValueError, which main prints as
one `error:` line with exit 1.  Only --jobs > 1 imports the process
pool, so other calls skip it.
"""

from __future__ import annotations

import argparse
import csv
import fcntl
import functools
import json
import os
import random
import re
import sys

from . import __version__
from .surfaces import (
    Markoff11,
    MarkoffError,
    Point3,
    make_cubic04,
    on_surface,
    residual,
)
from .moves import GENERATOR_SETS
from .trace_algebra import IDENTITY_SUITES
from .descent import (
    AConfig,
    CAP_HIT,
    DEFAULT_STEP_CAP,
    EXCEPTIONAL_HIT,
    INTEGER_STAR,
    reduce_compact,
    reduce_min_complex_04,
    reduce_min_complex_11,
)
from .orbits import (
    DEFAULT_CAPS,
    Caps,
    _scan_labels,
    equivalent,
    orbit_bfs,
    parabolic_lines_11,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CAPS = 2

CACHE_ENV = "MARKOFF_CACHE"


def parse_complex_literal(text: str) -> complex:
    """Parse a complex scalar written as re+imi, e.g. 1.5+0.25i or -2i."""
    try:
        return complex(text.strip().replace("i", "j"))
    except ValueError:
        raise ValueError(f"cannot parse complex literal {text!r}") from None


def parse_point(text: str, complex_mode: bool) -> Point3:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated coordinates, got {text!r}")
    if complex_mode:
        return Point3(*(parse_complex_literal(p) for p in parts))
    return Point3(*(int(p) for p in parts))


def parse_params(args, complex_mode: bool = False) -> tuple:
    if args.type == "11":
        if args.k is None:
            raise ValueError("--k is required")
        vals = args.k.split(",")
        if len(vals) != 1:
            raise ValueError("--type 11 takes a single k value")
    else:
        if args.k is None:
            raise ValueError("--k k1,k2,k3,k4 is required for --type 04")
        vals = args.k.split(",")
        if len(vals) != 4:
            raise ValueError("--type 04 takes four comma-separated k values")
    if complex_mode:
        return tuple(parse_complex_literal(v) for v in vals)
    return tuple(int(v) for v in vals)


def build_surface(surface_type: str, params: tuple):
    if surface_type == "11":
        return Markoff11(params[0])
    return make_cubic04(*params)


def parse_k_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ValueError(f"expected LO..HI, got {text!r}")
    return range(int(lo), int(hi) + 1)


# ---------------------------------------------------------------------------
# reduce


def cmd_reduce(args) -> int:
    params = parse_params(args, args.complex)
    point = parse_point(args.point, args.complex)
    surface = build_surface(args.type, params)
    if not on_surface(surface, point):
        raise MarkoffError(f"point {args.point} is not on the surface; "
                           f"residual = {residual(surface, point)}")
    if args.complex:
        reduce = reduce_min_complex_11 if isinstance(surface, Markoff11) else reduce_min_complex_04
        res = reduce(surface, point, args.cap_steps)
    else:
        res = reduce_compact(surface, AConfig(INTEGER_STAR), point, args.cap_steps)
    payload = {
        "reduced": _point_json(res.reduced),
        "word": str(res.word),
        "status": res.status,
        "steps": res.steps,
    }
    if res.status == EXCEPTIONAL_HIT:
        payload["exceptional"] = {
            "axis": "xyz"[res.exceptional_axis],
            "value": res.exceptional_value,
        }
    if res.terminal_condition is not None:
        payload["terminal_condition"] = res.terminal_condition
    if res.bound is not None:
        payload["bound"] = res.bound
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"reduced: {_point_text(res.reduced)}")
        print(f"word: {res.word}")
        print(f"status: {res.status} (steps={res.steps})")
        if res.status == EXCEPTIONAL_HIT:
            print(
                f"exceptional coordinate: {payload['exceptional']['axis']} = "
                f"{payload['exceptional']['value']}"
            )
    return EXIT_CAPS if res.status == CAP_HIT else EXIT_OK


def _point_json(p: Point3):
    return [[v.real, v.imag] if isinstance(v, complex) else v for v in p]


def _point_text(p: Point3) -> str:
    return "(" + ", ".join(str(v) for v in p) + ")"


# ---------------------------------------------------------------------------
# scan


@functools.cache
def _source_hash() -> str:
    """SHA-256 over the package's .py sources, so cached rows never outlive
    the code that computed them."""
    import hashlib  # here, not at module level: every CLI call pays the import

    package = os.path.dirname(os.path.abspath(__file__))
    digest = hashlib.sha256()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _row_key(surface_type, params, gens, box, height, code) -> str:
    return json.dumps(
        [surface_type, list(params), gens, box, height, code],
        sort_keys=True,
    )


# the fields of every scan row, in CSV column order (CSV leaves out the
# representatives), with the type of each but k
_ROW_FIELDS = (
    "k", "h_star_gamma_poly", "h_star_gamma_prime", "exceptional", "caps_hit",
    "representatives",
)
_ROW_TYPES = dict(zip(_ROW_FIELDS[1:], (int, int, int, bool, list)))


def _row_k(surface_type, params):
    return params[0] if surface_type == "11" else list(params)


def _is_row(row, k) -> bool:
    """True for a scan row of parameter k with every field of its type."""
    return (isinstance(row, dict) and row.keys() == set(_ROW_FIELDS) and row["k"] == k
            and all(type(row[field]) is kind for field, kind in _ROW_TYPES.items()))


def _scan_one(task) -> dict:
    surface_type, params, gens, box, height = task
    labels = _scan_labels(build_surface(surface_type, params), box, height)
    exceptional, reps = labels[gens]
    return {
        "k": _row_k(surface_type, params),
        "h_star_gamma_poly": len(labels["gamma_poly"][1]),
        "h_star_gamma_prime": len(labels["gamma_prime"][1]),
        "exceptional": exceptional,
        "caps_hit": False,
        "representatives": [list(p) for p, _ in reps],
    }


def _load_cache(path: str, keys) -> dict:
    """The rows of the cache log by key, a later line winning; a malformed
    line, or a log that cannot be read, is skipped with a warning.  A line
    that opens with a key string but not with one in keys, as _store_cache
    writes it (another row's, another source hash's, or one torn inside its
    key), is skipped unparsed and silent."""
    try:
        with open(path, "rb") as fh:
            fcntl.flock(fh, fcntl.LOCK_SH)
            lines = fh.read().split(b"\n")
    except FileNotFoundError:
        return {}
    except OSError as exc:
        print(f"warning: unreadable cache {path}: {exc.strerror or exc}; computing every row",
              file=sys.stderr)
        return {}
    entries, wanted = {}, tuple(b"[" + json.dumps(key).encode() + b", " for key in keys)
    for number, line in enumerate(lines, 1):
        if not line.strip() or line.startswith(b'["') and not line.startswith(wanted):
            continue
        try:
            item = json.loads(line)
        except (ValueError, RecursionError):  # RecursionError: a line nested too deep
            item = None
        # not `key, row = item`: a 2-character string or 2-key object would unpack too
        if isinstance(item, list) and len(item) == 2 and isinstance(item[0], str):
            entries[item[0]] = item[1]
        else:
            print(f"warning: malformed line {number} in cache {path}; skipped", file=sys.stderr)
    return entries


def _store_cache(path: str, rows: dict) -> None:
    """Append rows, {key: row}, to the cache log in one write under an
    exclusive lock on the log, so concurrent scans lose no rows.  The write
    starts on a fresh line, so a writer killed mid-line tears only its own."""
    text = "".join(json.dumps([key, row], sort_keys=True) + "\n" for key, row in rows.items())
    # a new log is private, and a symlink at path is refused (ELOOP), never written through
    with open(path, "a", opener=lambda p, f: os.open(p, f | os.O_NOFOLLOW, 0o600)) as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        fh.write("\n" + text)


def cmd_scan(args) -> int:
    if args.k_range is None:
        ks = [parse_params(args)]
    elif args.type == "11":
        ks = [(k,) for k in parse_k_range(args.k_range)]
    else:
        raise ValueError("--k-range needs --type 11")

    cache_path = args.cache or os.environ.get(CACHE_ENV)
    code = _source_hash() if cache_path else None  # only the cache keys need it
    height = args.box if args.cap_height is None else args.cap_height
    keys = [_row_key(args.type, params, args.gens, args.box, height, code) for params in ks]
    entries = _load_cache(cache_path, keys) if cache_path else {}
    rows: list = [None] * len(keys)
    missing = []
    for i, (key, params) in enumerate(zip(keys, ks)):
        row = entries.get(key)
        if _is_row(row, _row_k(args.type, params)):
            rows[i] = row
            continue
        if key in entries:
            print(f"warning: malformed row in cache {cache_path}; recomputing it",
                  file=sys.stderr)
        missing.append((i, (args.type, params, args.gens, args.box, height)))
    if missing:
        if args.jobs > 1 and len(missing) > 1:
            from concurrent.futures import ProcessPoolExecutor  # here: serial scans skip it

            with ProcessPoolExecutor(max_workers=args.jobs) as pool:
                for (i, _), row in zip(missing, pool.map(_scan_one, [t for _, t in missing])):
                    rows[i] = row
        else:
            for i, task in missing:
                rows[i] = _scan_one(task)
        if cache_path:
            try:
                _store_cache(cache_path, {keys[i]: rows[i] for i, _ in missing})
            except OSError as exc:
                print(f"warning: cannot write cache {cache_path}: {exc.strerror or exc}; "
                      "rows not stored", file=sys.stderr)

    if args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(_ROW_FIELDS[:-1])
        for row in rows:
            k = row["k"]
            k_text = " ".join(str(v) for v in k) if isinstance(k, list) else k
            writer.writerow([k_text] + [row[field] for field in _ROW_FIELDS[1:-1]])
    else:
        doc = {
            "surface": {"type": args.type},
            "generators": args.gens,
            "box": args.box,
            "rows": rows,
        }
        print(json.dumps(doc, sort_keys=True, indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    trials = args.trials
    failures = 0
    for name, suite in IDENTITY_SUITES:
        rng = random.Random(args.seed)
        ok = suite(rng, trials)
        print(f"{'pass' if ok else 'FAIL'}  {name} ({trials} trials)")
        failures += 0 if ok else 1
    print(f"{len(IDENTITY_SUITES) - failures}/{len(IDENTITY_SUITES)} suites passed")
    return EXIT_OK if failures == 0 else EXIT_ERROR


# ---------------------------------------------------------------------------
# lines


def cmd_lines(args) -> int:
    try:
        k = int(args.k)
    except ValueError:
        raise ValueError(f"--k must be an integer, got {args.k!r}") from None
    report = parabolic_lines_11(k)
    if args.format == "json":
        doc = {
            "k": k,
            "square_root": report.square_root,
            "note": report.note,
            "lines": [
                {
                    "axis": "xyz"[line.axis],
                    "value": line.value,
                    "origin": list(line.origin),
                    "direction": list(line.direction),
                    "integral": line.integral,
                }
                for line in report.lines
            ],
        }
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        if not report.lines:
            print(f"k={k}: no integral lines ({report.note})")
        for line in report.lines:
            print(
                f"x={line.value:+d}: t -> "
                f"({line.value}, t, {_line_z_text(line)})  [integral]"
            )
    return EXIT_OK


def _line_z_text(line) -> str:
    head = "t" if line.direction.z > 0 else "-t"
    off = line.origin.z
    return head if off == 0 else f"{head}{off:+d}"


# ---------------------------------------------------------------------------
# orbit / equiv


def cmd_orbit(args) -> int:
    params = parse_params(args)
    surface = build_surface(args.type, params)
    start = parse_point(args.start, complex_mode=False)
    run = orbit_bfs(surface, args.gens, start, args.cap_height, args.cap_count)
    rows = [(p, str(word)) for p, word in run.words().items()]
    if args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["x", "y", "z", "word"])
        for p, word in rows:
            writer.writerow([p.x, p.y, p.z, word])
    else:
        doc = {
            "start": list(start),
            "caps_hit": run.caps_hit,
            "points": [{"point": list(p), "word": word} for p, word in rows],
        }
        print(json.dumps(doc, sort_keys=True, indent=2))
    return EXIT_CAPS if run.caps_hit else EXIT_OK


def cmd_equiv(args) -> int:
    params = parse_params(args)
    surface = build_surface(args.type, params)
    p = parse_point(args.p, complex_mode=False)
    q = parse_point(args.q, complex_mode=False)
    res = equivalent(surface, args.gens, p, q, Caps(args.cap_height, args.cap_count))
    if res.equivalent:
        print(json.dumps({"equivalent": True, "word": str(res.word)}, sort_keys=True))
        return EXIT_OK
    print(
        json.dumps(
            {"equivalent": False, "exhausted": res.exhausted, "pruned": res.pruned},
            sort_keys=True,
        )
    )
    return EXIT_CAPS


# ---------------------------------------------------------------------------
# argument plumbing


# the least value of each numeric option that has one
_LEAST = {"box": 0, "cap_height": 0, "cap_steps": 0, "cap_count": 1, "jobs": 1, "trials": 1}


def _check_args(args) -> None:
    """Reject an option value below its least value; an option the command
    lacks, or left unset, passes."""
    for dest, least in _LEAST.items():
        value = getattr(args, dest, None)
        if value is not None and value < least:
            bound = "positive" if least else "nonnegative"
            raise ValueError(f"--{dest.replace('_', '-')} must be {bound}")


def _add_surface_args(sub, with_range=False):
    sub.add_argument("--type", choices=("11", "04"), default="11")
    k_args = sub.add_mutually_exclusive_group() if with_range else sub
    k_args.add_argument("--k", help="k for --type 11, k1,k2,k3,k4 for --type 04")
    if with_range:
        k_args.add_argument(
            "--k-range", dest="k_range", help="inclusive range LO..HI, --type 11 only"
        )


def _add_caps_args(sub):
    sub.add_argument("--cap-height", dest="cap_height", type=int, default=DEFAULT_CAPS.height)
    sub.add_argument("--cap-count", dest="cap_count", type=int, default=DEFAULT_CAPS.count)


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that accepts values like -2..2 or -3,6,15 and exits
    with EXIT_ERROR on a usage error, since exit code 2 means a cap was hit."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parse_args keeps no state
    in it, so every main call can share it."""
    parser = _Parser(
        prog="markoff",
        description="Descent, orbits and class numbers on Markoff-type cubic surfaces",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = subs.add_parser("reduce", help="reduce a point, printing a certificate")
    _add_surface_args(p)
    p.add_argument("--point", required=True, help="x,y,z")
    p.add_argument("--complex", action="store_true", help="complex-domain descent")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--cap-steps", dest="cap_steps", type=int, default=DEFAULT_STEP_CAP)
    p.set_defaults(func=cmd_reduce)

    p = subs.add_parser("scan", help="tabulate class numbers over a range of k")
    _add_surface_args(p, with_range=True)
    p.add_argument("--box", type=int, default=100)
    p.add_argument("--gens", choices=GENERATOR_SETS, default="gamma_prime")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--cache", help=f"cache file (default: ${CACHE_ENV})")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--cap-height", dest="cap_height", type=int)
    p.set_defaults(func=cmd_scan)

    p = subs.add_parser("verify", help="run the randomized identity suites")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("lines", help="integral parabolic lines on a torus surface")
    p.add_argument("--k", required=True)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=cmd_lines)

    p = subs.add_parser("orbit", help="dump a capped orbit BFS with certificates")
    _add_surface_args(p)
    p.add_argument("--start", required=True, help="x,y,z")
    p.add_argument("--gens", choices=GENERATOR_SETS, default="gamma_prime")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_caps_args(p)
    p.set_defaults(func=cmd_orbit)

    p = subs.add_parser("equiv", help="search for a word connecting two points")
    _add_surface_args(p)
    p.add_argument("--p", required=True, help="x,y,z")
    p.add_argument("--q", required=True, help="x,y,z")
    p.add_argument("--gens", choices=GENERATOR_SETS, default="gamma_prime")
    _add_caps_args(p)
    p.set_defaults(func=cmd_equiv)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_args(args)
        return args.func(args)
    except (MarkoffError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
