"""Seed-generated `ouro` command lines and their known answers.

Every command carries the answer the mathematics gives for it, never one
read back from `ouro`: catalog members PASS their checks, the listed
non-members FAIL, a logarithm of a number that is negative on the whole box
is a DOMAIN_ERROR, and enumeration counts come from the closed form
sum_k C(m, k) k^(m-k) computed here.  `check_output` compares one report
with its answer.

The composition of each workload is fixed; the seed only draws sampling
seeds, parameters, formats and order, so the work per pass stays nearly the
same from seed to seed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

WORKLOADS = ("check-pass", "derive-sweep", "interactive")

EXIT_CODES = {"PASS": 0, "DEGENERATE": 0, "FAIL": 1, "DOMAIN_ERROR": 3}

UNCHECKED_OPERATOR = "unchecked: ROADMAP item 4"

# Expected overall verdict of `ouro check` on each entry's default box.
# Every family listed maps its box into itself and is idempotent there.
CHECK_VERDICTS = {
    **{name: "PASS" for name in (
        "arith_mean", "geo_mean", "harmonic_mean", "power_mean", "median",
        "min_all", "max_all", "weighted_mean",
        "abs", "floor", "ceil", "relu", "clamp", "max_const", "min_const",
        "box_clamp", "simplex_projection", "l2_ball_projection")},
    # The projection onto a.x = b leaves [-10, 10]^3 (P(10, 10, -10) =
    # (7, 7, -13)); whether operators must keep range containment is still
    # open, so only determinism is checked.
    "hyperplane_projection": None,
}

# Expected overall verdict of `ouro derive` over a sampled sweep.
DERIVE_VERDICTS = {
    # smooth symmetric means: partials at the diagonal are all 1/n
    "arith_mean": "PASS", "geo_mean": "PASS", "harmonic_mean": "PASS",
    "power_mean": "PASS",
    # the diagonal point ties every comparison of the selection network
    "median": "DEGENERATE",
    # the partials sum to 1 but equal the weights, not 1/n
    "weighted_mean": "FAIL",
    # zero gradient wherever x < 0 (relu) or x leaves [lo, hi] (clamp)
    "relu": "DEGENERATE", "clamp": "DEGENERATE",
    # |x| lands on the identity branch, whose derivative is 1
    "abs": "PASS",
}


@dataclass(frozen=True)
class Command:
    """One `ouro` command line and its known answer.

    `verdict` is the expected overall verdict, `exit_code` the expected
    exit status; both None means the answer is unchecked (`note` says
    why) and only determinism and completion are checked.  `count` is the
    expected enumeration count, `listed` whether the maps themselves are
    printed, and `names` the catalog entries a listing must contain.
    """

    kind: str
    argv: tuple[str, ...]
    verdict: str | None = None
    exit_code: int | None = None
    count: int | None = None
    listed: bool = False
    names: tuple[str, ...] = ()
    note: str = ""


def idempotent_count(m: int) -> int:
    """Number of idempotent self-maps of an m-element set."""
    return sum(math.comb(m, k) * k ** (m - k) for k in range(1, m + 1))


def _verdict_command(kind, argv, verdict, note=""):
    code = None if verdict is None else EXIT_CODES[verdict]
    return Command(kind, tuple(argv), verdict, code, note=note)


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(1 << 31))


def _fmt(v: float) -> str:
    return f"{v:.2f}"


# ---------------------------------------------------------------------------
# check-pass

def _check_pass(rng: random.Random) -> list[Command]:
    k = rng.choice([1, 2, 3, 5, 6, 7])
    lo = rng.uniform(-9.0, -1.0)
    entries = [
        ("arith_mean", ["--n", "6"], 1024),
        ("geo_mean", ["--n", "4"], 1024),
        ("harmonic_mean", ["--n", "4"], 1024),
        ("power_mean", ["--n", "4", "--params", f"p={rng.choice([2, 3])}"], 1024),
        ("median", ["--n", "5"], 512),
        ("min_all", ["--n", "6"], 1024),
        ("max_all", ["--n", "6"], 1024),
        ("weighted_mean", ["--w", f"{k / 8},{1 - k / 8}"], 1024),
        ("abs", [], 2048),
        ("floor", [], 2048),
        ("ceil", [], 2048),
        ("relu", [], 2048),
        ("clamp", ["--params", f"lo={_fmt(lo)}",
                   "--params", f"hi={_fmt(rng.uniform(1.0, 9.0))}"], 2048),
        ("max_const", ["--params", f"c={_fmt(rng.uniform(-9.0, 9.0))}"], 2048),
        ("min_const", ["--params", f"c={_fmt(rng.uniform(-9.0, 9.0))}"], 2048),
        ("box_clamp", ["--params", "d=8", "--params", f"lo={_fmt(lo)}",
                       "--params", f"hi={_fmt(rng.uniform(1.0, 9.0))}"], 512),
        ("simplex_projection", ["--params", "d=8"], 512),
        ("l2_ball_projection", ["--params", "d=8",
                                "--params", f"r={_fmt(rng.uniform(1.0, 5.0))}"], 512),
        ("hyperplane_projection", [], 512),
    ]
    cmds = []
    for name, params, samples in entries:
        argv = ["check", "--catalog", name, *params, "--samples", str(samples),
                "--seed", _seed(rng), "--format", "json"]
        verdict = CHECK_VERDICTS[name]
        note = UNCHECKED_OPERATOR if verdict is None else ""
        cmds.append(_verdict_command(f"check {name}", argv, verdict, note))
    return cmds


# ---------------------------------------------------------------------------
# derive-sweep

KINK_MARGIN = ["--kink-margin", "0.05"]


def _derive_sweep(rng: random.Random) -> list[Command]:
    k = rng.choice([1, 2, 3, 5, 6, 7])
    # Sample counts scale inversely with the cost of a point, so that every
    # sweep takes about the same time and the median command is steady.
    entries = [
        ("arith_mean", ["--n", "2"], "dual", 2048),
        ("arith_mean", ["--n", "4"], "dual", 1280),
        ("geo_mean", ["--n", "2"], "dual", 3072),
        ("geo_mean", ["--n", "3"], "dual", 1536),
        ("harmonic_mean", ["--n", "3"], "dual", 1280),
        ("power_mean", ["--n", "3", "--params", f"p={rng.choice([2, 3])}"],
         "dual", 1024),
        ("arith_mean", ["--n", "3"], "fd", 2048),
        ("median", ["--n", "3"], "dual", 2048),
        ("weighted_mean", ["--w", f"{k / 8},{1 - k / 8}"], "dual", 2560),
        # A wide kink margin makes about one draw in 200 land near a
        # corner, so these sweeps exercise kink retries.
        ("relu", KINK_MARGIN, "dual", 4096),
        ("abs", KINK_MARGIN, "dual", 4096),
        ("clamp", ["--params", f"lo={_fmt(rng.uniform(-5.0, -1.0))}",
                   "--params", f"hi={_fmt(rng.uniform(1.0, 5.0))}",
                   *KINK_MARGIN], "dual", 4096),
    ]
    cmds = []
    for name, params, method, samples in entries:
        argv = ["derive", "--catalog", name, *params, "--method", method,
                "--samples", str(samples), "--seed", _seed(rng),
                "--format", "json"]
        cmds.append(_verdict_command(f"derive {name} {method}", argv,
                                     DERIVE_VERDICTS[name]))
    return cmds


# ---------------------------------------------------------------------------
# interactive

_GOLDEN = 0x9E3779B97F4A7C15
_M64 = (1 << 64) - 1


def _unit_uniform(seed: int, counter: int) -> float:
    # splitmix64 counter-based draw, as documented for `ouro` sampling
    z = (seed + (counter + 1) * _GOLDEN) & _M64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _M64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _M64
    z ^= z >> 31
    return (z >> 11) * 2.0 ** -53


def first_slab_index(seed: int, edge: float, limit: int) -> int | None:
    """Index of the first sample of [-10, 10] beyond |x| = edge, or None."""
    for i in range(limit):
        x = -10.0 + _unit_uniform(seed, i) * 20.0
        if abs(x) > edge:
            return i
    return None


# A thin-slab non-member is the identity except within 10 - edge of one end
# of the box, so its first violation comes after about 20 / (10 - edge)
# samples.  Sampling seeds are drawn until that index falls in this band:
# the work of these commands then varies little from seed to seed.
SLAB_BAND = (1500, 2500)
SLAB_SAMPLES = 100_000

_MEMBERS = [
    lambda r: f"clamp(x, {_fmt(r.uniform(-9, -0.5))}, {_fmt(r.uniform(0.5, 9))})",
    lambda r: f"max(x, {_fmt(r.uniform(-9, 9))})",
    lambda r: f"min(x, {_fmt(r.uniform(-9, 9))})",
    lambda r: "abs(x)",
    lambda r: "relu(x)",
    lambda r: "floor(x)",
    lambda r: "ceil(x)",
    lambda r: "(x1 + x2) / 2",
    lambda r: "min(x1, x2)",
    lambda r: "max(x1, max(x2, x3))",
]

# Each fails at almost every point of its box, so the first samples fail.
_NON_MEMBERS = [
    lambda r: [f"x + {_fmt(r.uniform(0.5, 3))}"],
    lambda r: [f"{r.choice(['2', '3', '0.5', '-1'])} * x"],
    lambda r: ["x^2", "--box=0:1"],
    lambda r: ["x1 * x2"],
    lambda r: ["(x1 + x2) / 3"],
    lambda r: ["-x"],
]

# Each is undefined on the whole box [-10, 10].
_FAULTS = [
    lambda r: f"ln(x - {_fmt(r.uniform(20, 30))})",
    lambda r: f"sqrt(x - {_fmt(r.uniform(11, 20))})",
    lambda r: "1 / (x - x)",
]


def _slab(rng: random.Random) -> Command:
    while True:
        edge = float(f"{10.0 - rng.uniform(0.008, 0.012):.4f}")
        seed = rng.randrange(1 << 31)
        index = first_slab_index(seed, edge, SLAB_BAND[1])
        if index is not None and index >= SLAB_BAND[0]:
            break
    # The first sample beyond the edge decides which end is hit; the
    # expression bends away from the identity only at that end.
    x = -10.0 + _unit_uniform(seed, index) * 20.0
    expr = f"x + relu(x - {edge})" if x > 0 else f"x - relu(-x - {edge})"
    argv = ["check", f"--expr={expr}", "--samples", str(SLAB_SAMPLES),
            "--seed", str(seed)]
    return _verdict_command("check thin-slab", argv, "FAIL")


def _fmt_choice(rng, formats=("text", "json")):
    return ["--format", rng.choice(formats)]


def _interactive(rng: random.Random) -> list[Command]:
    cmds = []
    for make in rng.sample(_MEMBERS, 6):
        argv = ["check", f"--expr={make(rng)}", "--samples", "128",
                "--seed", _seed(rng), *_fmt_choice(rng)]
        cmds.append(_verdict_command("check member", argv, "PASS"))
    for make in rng.sample(_NON_MEMBERS, 4):
        expr, *extra = make(rng)
        argv = ["check", f"--expr={expr}", *extra, "--samples", "128",
                "--seed", _seed(rng), *_fmt_choice(rng)]
        cmds.append(_verdict_command("check non-member", argv, "FAIL"))
    cmds += [_slab(rng) for _ in range(6)]
    for make in rng.sample(_FAULTS, 2):
        argv = ["check", f"--expr={make(rng)}", "--samples", "128",
                *_fmt_choice(rng)]
        cmds.append(_verdict_command("check domain fault", argv,
                                     "DOMAIN_ERROR"))

    # m = 7 always in json, the largest report, so the peak memory of a
    # pass comes from the same command whatever the seed.
    formats = ["text", "csv"]
    rng.shuffle(formats)
    for m, fmt in zip([7, rng.randint(3, 6), rng.randint(3, 6)], ["json"] + formats):
        cmds.append(Command("enumerate", ("enumerate", "--m", str(m),
                                          "--format", fmt),
                            exit_code=0, count=idempotent_count(m), listed=True))
    cmds.append(Command("enumerate count-only",
                        ("enumerate", "--m", "20", "--count-only",
                         *_fmt_choice(rng, ("text", "json", "csv"))),
                        exit_code=0, count=idempotent_count(20)))
    cmds.append(Command("catalog", ("catalog", *_fmt_choice(rng)),
                        exit_code=0, names=tuple(sorted(CHECK_VERDICTS))))

    # distinct coordinates, so the median's comparisons do not tie at x
    point = [_fmt(v / 100) for v in sorted(rng.sample(range(-900, 900, 50), 3))]
    k = rng.choice([1, 3, 5, 7, 9, 11, 13, 15])
    for name, params, pt in [
            ("arith_mean", ["--n", "3"], point),
            ("median", ["--n", "3"], point),
            ("weighted_mean", ["--w", f"{k / 16},{1 - k / 16}"], point[:2])]:
        argv = ["derive", "--catalog", name, *params, f"--point={','.join(pt)}",
                "--samples", "64", "--seed", _seed(rng), *_fmt_choice(rng)]
        cmds.append(_verdict_command(f"derive --point {name}", argv,
                                     DERIVE_VERDICTS[name]))
    rng.shuffle(cmds)
    return cmds


_GENERATORS = {"check-pass": _check_pass, "derive-sweep": _derive_sweep,
               "interactive": _interactive}


def generate(workload: str, seed: int) -> list[Command]:
    """The command list of one pass over `workload`, drawn from `seed`."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


# ---------------------------------------------------------------------------
# answer checking

def _option(argv, name, default):
    return argv[argv.index(name) + 1] if name in argv else default


def _parse(cmd: Command, text: str):
    """(verdict, count, listed maps, catalog names) found in a report."""
    fmt = _option(cmd.argv, "--format", "text")
    if fmt == "json":
        doc = json.loads(text)
        maps = doc.get("maps")
        names = tuple(e["name"] for e in doc.get("entries", ()))
        return (doc.get("overall"), doc.get("count"),
                None if maps is None else len(maps), names)
    lines = text.splitlines()
    if fmt == "csv":
        head = dict(part.split("=", 1) for part in lines[0][2:].split())
        return None, int(head["count"]), len(lines) - 1, ()
    verdict = count = None
    for line in lines:
        if line.startswith("overall: "):
            verdict = line[len("overall: "):]
        elif line.startswith("count: "):
            count = int(line[len("count: "):])
    names = tuple(line.split()[0] for line in lines[1:] if line[:1].isalpha())
    return verdict, count, len(lines) - 2, names


def check_output(cmd: Command, code: int | None, text: str) -> str | None:
    """Why a report does not match its known answer, or None if it does."""
    if code is None:
        return "did not complete"
    if cmd.exit_code is not None and code != cmd.exit_code:
        return f"exit code {code}, expected {cmd.exit_code}"
    if cmd.verdict is None and cmd.count is None and not cmd.names:
        return None
    try:
        verdict, count, listed, names = _parse(cmd, text)
    except (ValueError, KeyError, IndexError, AttributeError) as exc:
        return f"unreadable report: {exc!r}"
    if cmd.verdict is not None and verdict != cmd.verdict:
        return f"verdict {verdict}, expected {cmd.verdict}"
    if cmd.count is not None:
        if count != cmd.count:
            return f"count {count}, expected {cmd.count}"
        if cmd.listed and listed != cmd.count:
            return f"{listed} maps listed, expected {cmd.count}"
    missing = set(cmd.names) - set(names)
    if missing:
        return f"catalog lacks {sorted(missing)}"
    return None
