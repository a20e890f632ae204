"""Seeded request streams for the four benchmark workloads.

Every stream is a pure function of ``(workload, seed, seconds)``: the
same arguments give byte-identical request lines.  A session sends, over
one closed-loop connection::

    probe | warm-up ... | stats | window ... | stats

The probe is the first request (its answer ends the set-up clock), the
warm-up is untimed, and the two ``stats`` reads bracket the timed window
for the workload guards.  The window is a fixed request sequence, so the
work, the cache fill and the exact counters repeat on every run of a seed.

Queries are kept as small trees (``("and"|"or", [children])`` or a
``("c", attr, op, rhs)`` leaf) so one logical query can be rendered in
several commuted and re-spaced texts.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

WORKLOADS = ("warm_translate", "cold_translate", "mediate_reload", "cluster_warm")

#: Window requests per measured second, fixed per workload so the window
#: is the same request sequence on every run with the same ``--seconds``.
WINDOW_RATE = {
    "warm_translate": 3200,
    "cold_translate": 1100,
    "mediate_reload": 1600,
    "cluster_warm": 1250,
}
#: Fewest window requests, so at least ten samples lie beyond the p99.
MIN_WINDOW = 1000

#: Distinct query fingerprints in the warm pool, and texts per fingerprint.
#: 160 entries stay far below the TranslationCache's 1024 slots.
WARM_POOL = 160
WARM_VARIANTS = 4

#: Cold warm-up length: more unique queries than the cache holds, so the
#: cache is full and evicting before the window opens.
COLD_WARMUP = 1200

#: mediate_reload: distinct queries (six of each of the nine shapes), the
#: position period of ``translate`` among them, and of ``reload`` requests.
MEDIATE_POOL = 54
TRANSLATE_EVERY = 5
RELOAD_EVERY = 150
MEDIATE_WARMUP = 2 * RELOAD_EVERY

#: The set-up probe: Example 1, answered before anything else.
PROBE_QUERY = '[ln = "Clancy"] and [fn = "Tom"]'

SOURCE_NAME = "Amazon"


@dataclass
class Request:
    """One request of a stream, plus what the oracle needs to check it."""

    op: str
    query: str = ""
    #: Warm pool entry (commuted variants share one) or -1.
    group: int = -1
    #: Active spec label at this position: "builtin", "A" or "B".
    spec: str = "builtin"
    #: Reload requests: the declarative spec label they install.
    reload_to: str = ""


@dataclass
class Plan:
    workload: str
    seed: int
    #: 0 = single-process `repro serve`, 1 = the one-worker cluster.
    processes: int
    warmup: list[Request]
    window: list[Request]
    lines: list[bytes] = field(default_factory=list)

    @property
    def requests(self) -> list[Request]:
        """Every request of a session, in send order (stats included)."""
        stats = Request("stats")
        return [Request("translate", PROBE_QUERY), *self.warmup, stats, *self.window, stats]

    @property
    def window_start(self) -> int:
        """Index of the first window request in :attr:`requests`."""
        return 2 + len(self.warmup)


# -- rendering ----------------------------------------------------------------

_SPACINGS = (
    ("[{a} {o} {v}]", " {k} "),
    ("[{a}{o}{v}]", " {k} "),
    ("[ {a} {o} {v} ]", "  {k}  "),
    ("[{a} {o} {v}]", "\t{k} "),
)


def leaf(attr: str, op: str, rhs: str) -> tuple:
    return ("c", attr, op, rhs)


def render(node: tuple, rng: random.Random | None = None, style: int = 0) -> str:
    """Query text for ``node``; with ``rng``, children are shuffled (∧/∨
    commute) and keywords vary in case, under spacing style ``style``."""
    if node[0] == "c":
        _, attr, op, rhs = node
        pattern, _ = _SPACINGS[style]
        if op == "contains" and style == 1:
            pattern = "[{a} {o} {v}]"  # word operators need their spaces
        return pattern.format(a=attr, o=op, v=rhs)
    kind, children = node
    children = list(children)
    if rng is not None:
        rng.shuffle(children)
    keyword = kind.upper() if rng is not None and rng.random() < 0.3 else kind
    joiner = _SPACINGS[style][1].format(k=keyword)
    parts = []
    for child in children:
        text = render(child, rng, style)
        parts.append(f"({text})" if child[0] != "c" else text)
    return joiner.join(parts)


def _canonical(node: tuple) -> str:
    """An order-free key, to keep pool entries distinct."""
    if node[0] == "c":
        return "|".join(node[1:])
    return node[0] + "(" + ",".join(sorted(_canonical(c) for c in node[1])) + ")"


def _tag(n: int) -> str:
    """A short alphabetic tag unique per ``n`` (names and words stay words)."""
    out = ""
    n += 1
    while n:
        n, r = divmod(n - 1, 26)
        out = chr(ord("a") + r) + out
    return out


# -- query generators -----------------------------------------------------------

_LAST = ("Clancy", "Smith", "Klancy", "Tanen", "Chang", "Garcia", "Ullman")
_FIRST = ("Tom", "John", "Andy", "Kevin", "Maria", "Jeff")
_WORDS = ("java", "web", "data", "www", "queries", "mining", "systems", "jdk")
_PUBLISHERS = ("oreilly", "wiley", "putnam", "prentice", "mit")
#: Exact titles of the simulated catalog and prefixes of them.
_TITLES = ("Java", "JDK", "The Java", "Deep", "WWW", "Hunt", "Operating",
           "Java Web Programming", "JDK for Java", "Deep Queries")


def _name(rng: random.Random, names: tuple, unique: str) -> str:
    return f'"{rng.choice(names)}{unique}"'


def _warm_query(rng: random.Random, k: int) -> tuple:
    """One warm-pool query: a paper-style shape with tagged constants."""
    t = _tag(k)
    year = str(rng.randint(1990, 1999))
    month = str(rng.randint(1, 12))
    ln = leaf("ln", "=", _name(rng, _LAST, t))
    fn = leaf("fn", "=", _name(rng, _FIRST, t))
    kwd = leaf("kwd", "contains", rng.choice(_WORDS) + t)
    shape = k % 6
    if shape == 0:
        return ("and", [ln, fn])
    if shape == 1:
        return ("and", [("or", [ln, leaf("ln", "=", _name(rng, _LAST, t + "x"))]), fn])
    if shape == 2:
        return ("and", [leaf("pyear", "=", year), leaf("pmonth", "=", month), kwd])
    if shape == 3:
        return (
            "and",
            [
                ("or", [("and", [ln, fn]), kwd, leaf("kwd", "contains", "web" + t)]),
                leaf("pyear", "=", year),
                ("or", [leaf("pmonth", "=", month), leaf("pmonth", "=", "6")]),
            ],
        )
    if shape == 4:
        return (
            "and",
            [
                leaf("publisher", "=", f'"{rng.choice(_PUBLISHERS)}{t}"'),
                leaf("ti", "contains", rng.choice(_WORDS) + t),
                leaf("pyear", "=", year),
            ],
        )
    return ("and", [("or", [kwd, leaf("ti", "contains", "web" + t)]), ln])


#: Cold query kinds, dealt from shuffled decks so every seed gets the same
#: mix: 30% SCM conjunctions of 2-5 constraints, 20% Example 2, 20% Qbook,
#: 30% cross-matching conjunctions of 2 or 3 blocks.
COLD_DECK = ("scm2", "scm3", "scm4", "scm5", "scm3", "scm4", "ex2", "ex2", "ex2", "ex2",
             "qbook", "qbook", "qbook", "qbook", "cross2", "cross2", "cross2",
             "cross3", "cross3", "cross3")


def _cold_query(rng: random.Random, k: int, kind: str) -> tuple:
    """One query of ``kind`` whose constants are unique to ``k``."""
    t = _tag(k)
    year = str(1900 + k % 100)
    month = str(1 + k % 12)

    def ln(extra: str = "") -> tuple:
        return leaf("ln", "=", _name(rng, _LAST, t + extra))

    def fn(extra: str = "") -> tuple:
        return leaf("fn", "=", _name(rng, _FIRST, t + extra))

    if kind.startswith("scm"):
        parts = [ln(), fn(), leaf("pyear", "=", year), leaf("pmonth", "=", month),
                 leaf("publisher", "=", f'"{rng.choice(_PUBLISHERS)}{t}"')]
        return ("and", parts[: int(kind[3:])])
    if kind == "ex2":
        return ("and", [("or", [ln(), ln("k")]), fn()])
    if kind == "qbook":
        return (
            "and",
            [
                ("or", [("and", [ln(), fn()]),
                        leaf("kwd", "contains", "www" + t),
                        leaf("kwd", "contains", "web" + t)]),
                leaf("pyear", "=", year),
                ("or", [leaf("pmonth", "=", month), leaf("pmonth", "=", "6")]),
            ],
        )
    # Cross-matching blocks: ln/fn (R2) and pyear/pmonth (R6) straddle
    # the conjuncts, so PSafe must merge blocks.  Capped at three blocks
    # to bound the per-query cost.
    blocks = [
        ("or", [ln(), leaf("pyear", "=", year)]),
        ("or", [fn(), leaf("pmonth", "=", month)]),
    ]
    if kind == "cross3":
        blocks.append(
            ("or", [leaf("ti", "contains", "data" + t), leaf("kwd", "contains", "mining" + t)])
        )
    return ("and", blocks)


def _mediate_query(rng: random.Random, shape: int) -> tuple:
    """A query of ``shape`` over the simulated catalog's real values."""
    ln = leaf("ln", "=", f'"{rng.choice(_LAST[:4])}"')
    fn = leaf("fn", "=", f'"{rng.choice(_FIRST[:3])}"')
    year = leaf("pyear", "=", rng.choice(("1994", "1996", "1997")))
    month = leaf("pmonth", "=", rng.choice(("2", "5", "6", "11")))
    kwd = leaf("kwd", "contains", rng.choice(_WORDS[:5]))
    ti = leaf("ti", "contains", rng.choice(("java", "jdk", "web", "data")))
    pub = leaf("publisher", "=", f'"{rng.choice(_PUBLISHERS[:2])}"')
    # R5 maps ``ti =`` inexactly to a title prefix, so the residue filter
    # F re-checks these candidates and drops the titles that only start
    # with the asked one.
    title = leaf("ti", "=", f'"{rng.choice(_TITLES)}"')
    shapes = (
        ("and", [ln, fn]),
        ("and", [("or", [ln, leaf("ln", "=", '"Klancy"')]), fn]),
        ("and", [year, month]),
        ("and", [kwd, year]),
        ("and", [("or", [("and", [ln, fn]), kwd]), year, ("or", [month, leaf("pmonth", "=", "6")])]),
        ("and", [pub, ti]),
        ("or", [("and", [ln, year]), ti]),
        title,
        ("and", [("or", [title, kwd]), year]),
    )
    return shapes[shape % len(shapes)]


def _rounds(rng: random.Random, items: list, n: int) -> list:
    """``n`` items as back-to-back shuffled rounds of ``items``, so each
    appears equally often and every seed gets the same mix."""
    out: list = []
    while len(out) < n:
        batch = list(items)
        rng.shuffle(batch)
        out.extend(batch)
    return out[:n]


# -- plans ---------------------------------------------------------------------

def window_size(workload: str, seconds: int) -> int:
    return max(MIN_WINDOW, round(WINDOW_RATE[workload] * seconds))


def _warm_pool(rng: random.Random) -> list[list[str]]:
    """WARM_POOL distinct queries, each as WARM_VARIANTS distinct texts."""
    pool: list[list[str]] = []
    seen: set[str] = set()
    k = 0
    while len(pool) < WARM_POOL:
        node = _warm_query(rng, k)
        k += 1
        key = _canonical(node)
        if key in seen:
            continue
        seen.add(key)
        texts = [render(node)]
        attempts = 0
        while len(texts) < WARM_VARIANTS and attempts < 50:
            attempts += 1
            text = render(node, rng, style=rng.randrange(len(_SPACINGS)))
            if text not in texts:
                texts.append(text)
        pool.append(texts)
    return pool


def _plan_warm(workload: str, seed: int, seconds: int) -> Plan:
    rng = random.Random(f"warm:{seed}")
    pool = _warm_pool(rng)
    texts = [(group, text) for group, variants in enumerate(pool) for text in variants]
    warmup = [Request("translate", text, group) for group, text in texts * 2]
    window = [
        Request("translate", text, group)
        for group, text in _rounds(rng, texts, window_size(workload, seconds))
    ]
    processes = 1 if workload == "cluster_warm" else 0
    return Plan(workload, seed, processes, warmup, window)


def _plan_cold(seed: int, seconds: int) -> Plan:
    rng = random.Random(f"cold:{seed}")
    n = window_size("cold_translate", seconds)
    kinds = _rounds(rng, list(COLD_DECK), COLD_WARMUP + n)
    queries = [render(_cold_query(rng, k, kind)) for k, kind in enumerate(kinds)]
    requests = [Request("translate", text) for text in queries]
    return Plan("cold_translate", seed, 0, requests[:COLD_WARMUP], requests[COLD_WARMUP:])


def _plan_mediate(seed: int, seconds: int) -> Plan:
    rng = random.Random(f"mediate:{seed}")
    pool: list[str] = []
    seen: set[str] = set()
    while len(pool) < MEDIATE_POOL:
        node = _mediate_query(rng, len(pool))
        key = _canonical(node)
        if key not in seen:
            seen.add(key)
            pool.append(render(node))
    total = MEDIATE_WARMUP + window_size("mediate_reload", seconds)
    queries = iter(_rounds(rng, pool, total))
    requests: list[Request] = []
    active = "builtin"
    for position in range(total):
        if position % RELOAD_EVERY == 0:
            target = "B" if active == "A" else "A"
            requests.append(Request("reload", spec=active, reload_to=target))
            active = target
        else:
            op = "translate" if position % TRANSLATE_EVERY == 0 else "mediate"
            requests.append(Request(op, next(queries), spec=active))
    return Plan("mediate_reload", seed, 0, requests[:MEDIATE_WARMUP], requests[MEDIATE_WARMUP:])


def build_plan(workload: str, seed: int, seconds: int) -> Plan:
    """The seeded request plan of one run, with its encoded lines."""
    if workload in ("warm_translate", "cluster_warm"):
        plan = _plan_warm(workload, seed, seconds)
    elif workload == "cold_translate":
        plan = _plan_cold(seed, seconds)
    elif workload == "mediate_reload":
        plan = _plan_mediate(seed, seconds)
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    plan.lines = [encode(i + 1, request) for i, request in enumerate(plan.requests)]
    return plan


def encode(request_id: int, request: Request) -> bytes:
    """The JSON line sent for one request."""
    body: dict = {"id": request_id, "op": request.op}
    if request.op in ("translate", "mediate"):
        body["query"] = request.query
    elif request.op == "reload":
        from specs import reload_spec

        body["spec"] = reload_spec(request.reload_to)
    return (json.dumps(body) + "\n").encode("utf-8")
