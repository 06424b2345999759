"""The three workloads: their seeded inputs, operations, CLI commands and checks.

A workload is built from the library handle and a seed.  It offers

* ``operations()``: the round's operations, each a callable taking the
  tracer, in seeded order; every call into the library goes through
  ``tracer.call`` under the name of the public function it calls;
* ``commands``: CLI invocations at fixed arguments, each with a checker
  and, where one exists, the library call it wraps;
* ``check_round(results, outputs)``: the problems found in one round,
  and the round's counters;
* ``split(tracer)``: extra calls made only in traced rounds, which time
  nested layers apart (growth strings alone, construction alone, the
  crossing filter alone).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

import checks


@dataclass
class Command:
    """A CLI command; ``check(code, stdout, stderr, results)`` returns problems.

    ``scaled`` says whether its time is scaled to the reference speed
    (speed.py); see Rho3 for the commands whose time is not."""

    argv: list[str]
    check: object
    wrapped: object = None  # callable(tracer): the library call behind it
    scaled: bool = True


def _drain(gen_fn, *args) -> int:
    return sum(1 for _ in gen_fn(*args))


def _json_report(code: int, stdout: str, what: str):
    if code != 0:
        return None, [f"{what}: exit code {code}"]
    try:
        return json.loads(stdout), []
    except ValueError:
        return None, [f"{what}: stdout is not JSON"]


# -- enumerate ---------------------------------------------------------------------


class Enumerate:
    """Brute-force counts of all four classes at k = 2, 3, 4."""

    name = "enumerate"
    KS = (2, 3, 4)
    N_MAX = 8  # partitions over [0..8] and braids over [0..7]; Bell(8) = 4140

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.triples = [
            (tag, k, n)
            for k in self.KS
            for tag, sizes in (
                ("P_k", range(0, self.N_MAX + 1)),
                ("P_k2", range(0, self.N_MAX + 1)),
                ("B_k", range(0, self.N_MAX)),
                ("B_k_dagger", range(0, self.N_MAX)),
            )
            for n in sizes
        ]
        random.Random(seed).shuffle(self.triples)
        self.commands = [
            Command(["count", "--class", "2regular", "--k", "3", "--n-max", "8"],
                    self._check_count, self._wrapped_count),
            Command(["verify", "--suite", "duality", "--k", "3", "--n-max", "7"],
                    self._check_verify),
        ]

    def operations(self):
        count = self.lib.enumeration.count_class
        return [
            lambda tr, t=t: tr.call("enumeration.count_class", count, *t)
            for t in self.triples
        ]

    def warm_up(self, tr):
        for tag in ("P_k", "P_k2", "B_k", "B_k_dagger"):
            self.lib.enumeration.count_class(tag, 3, 4)

    def _table(self, results):
        return dict(zip(self.triples, results))

    def _wrapped_count(self, tr):
        count = self.lib.enumeration.count_class
        return {n: tr.call("enumeration.count_class", count, "P_k2", 3, n) for n in range(1, 9)}

    def _check_count(self, code, stdout, stderr, results):
        report, problems = _json_report(code, stdout, "count")
        if report is None:
            return problems
        table = self._table(results)
        want = {str(n): str(table[("P_k2", 3, n)]) for n in range(1, 9)}
        return [] if report.get("counts") == want else [f"count: {report.get('counts')} != {want}"]

    def _check_verify(self, code, stdout, stderr, results):
        report, problems = _json_report(code, stdout, "verify duality")
        if report is None:
            return problems
        table = self._table(results)
        want = {str(n): table[("P_k", 3, n)] for n in range(2, 8)}
        suite = report["suites"][0]
        got = suite["details"].get("cardinalities")
        if report.get("passed") is not True or got != want:
            return [f"verify duality: passed={report.get('passed')}, {got} != {want}"]
        return []

    def check_round(self, results, outputs):
        table = self._table(results)
        return checks.check_count_table(table, self.lib.walks.rho3_closed_form), {}

    def split(self, tr) -> dict[str, int]:
        e, d = self.lib.enumeration, self.lib.diagrams
        for n in range(1, self.N_MAX + 1):
            words = list(e.restricted_growth_strings(n))
            tr.call("enumeration.restricted_growth_strings", _drain, e.restricted_growth_strings, n)
            diagrams = tr.call("enumeration.gen_set_partitions", list, e.gen_set_partitions(n))
            blocks = [_blocks(w) for w in words]
            tr.call("diagrams.partition_from_blocks",
                    lambda bs: [d.partition_from_blocks(b) for b in bs], blocks)
            tr.call("diagrams.crossing_number_of_arcs",
                    lambda ps: [d.crossing_number_of_arcs(p.arcs, s)
                                for p in ps for s in (False, True)], diagrams)
        gens = {
            "P_k": e.gen_partitions_k,
            "P_k2": e.gen_2regular_k,
            "B_k": e.gen_braids,
            "B_k_dagger": e.gen_braids_no_isolated,
        }
        yielded = 0
        for tag, k, n in self.triples:
            gen = gens[tag]
            yielded += tr.call(f"enumeration.{gen.__name__}", _drain, gen, n, k)
        return {"enumeration.diagrams_yielded": yielded}


def _blocks(word):
    blocks: dict[int, list[int]] = {}
    for v, label in enumerate(word, 1):
        blocks.setdefault(label, []).append(v)
    return list(blocks.values())


# -- bijection ---------------------------------------------------------------------


@dataclass
class DiagramInput:
    kind: str  # "partition" or "braid": the class the text is parsed as
    n: int
    arcs: tuple
    text: str
    malformed: bool = False
    two_regular: bool = False
    covered: bool = False  # braid without isolated points
    brute_crossing: int | None = field(default=None, repr=False)


def _labels_to_arcs(labels):
    last: dict[int, int] = {}
    arcs = []
    for v, label in enumerate(labels, 1):
        if label in last:
            arcs.append((last[label], v))
        last[label] = v
    return tuple(sorted(arcs))


def random_partition(rng, n, blocks, two_regular=False):
    """Arcs of a random set partition of [n] with exactly ``blocks`` blocks;
    with ``two_regular`` no two neighbours share a block."""
    while True:
        labels = []
        for v in range(n):
            choices = [c for c in range(blocks) if not (two_regular and labels and c == labels[-1])]
            labels.append(rng.choice(choices))
        if len(set(labels)) == blocks:
            return _labels_to_arcs(labels)


def random_braid(rng, n, blocks, covered):
    """A partition skeleton with loops on its isolated vertices: on all of
    them when ``covered``, else on each with probability 1/2."""
    arcs = random_partition(rng, n, blocks)
    touched = {v for a in arcs for v in a}
    loops = [(v, v) for v in range(1, n + 1)
             if v not in touched and (covered or rng.random() < 0.5)]
    return tuple(sorted(arcs + tuple(loops)))


def malform(text: str, n: int, arcs, kind: int) -> str:
    """One of eight corruptions, each breaking the format or a class rule."""
    body = "".join(f"({i},{j})" for i, j in arcs)
    i, j = arcs[0]
    return [
        f"n={n}; arcs={body}(1,{n + 1})",       # arc past vertex n
        f"n={n}; arcs=({i},{j}){body}",          # repeated arc
        f"n={n}; arcs={body}({j},{j})",          # loop on a vertex of degree >= 1
        f"n=x{n}; arcs={body}",                  # bad vertex count
        text[:-1],                               # unclosed arc
        f"n={n}; arcs={body}({j},{i})",          # arc with i > j
        f"n=-{n}; arcs=",                        # negative vertex count
        f"n={n}; arcs=(a,{j}){body}",            # non-integer endpoint
    ][kind % 8]


class Bijection:
    """Random diagrams as text through parse, tableaux and both dualities."""

    name = "bijection"
    LARGE = range(20, 61, 4)  # eleven sizes from 20 to 60
    COPIES = 2                # diagrams of each kind per large size
    SMALL = (8, 10, 12, 14)   # crossing number checked by brute force
    SAMPLE = 6                # texts per map direction on the CLI

    def __init__(self, lib, seed: int):
        self.lib = lib
        rng = random.Random(seed)
        valid = []
        for n in [n for n in self.LARGE for _ in range(self.COPIES)] + list(self.SMALL):
            b = max(2, n // 3)
            valid.append(self._input("partition", n, random_partition(rng, n, b)))
            valid.append(self._input("partition", n, random_partition(rng, n, b, True),
                                     two_regular=True))
            valid.append(self._input("braid", n, random_braid(rng, n, b, False)))
            valid.append(self._input("braid", n, random_braid(rng, n, b, True)))
        large = [inp for inp in valid if inp.n >= 20]
        bad = []
        for kind in range(len(valid) // 9):
            base = large[rng.randrange(len(large))]
            bad.append(DiagramInput(base.kind, base.n, base.arcs,
                                    malform(base.text, base.n, base.arcs, kind), malformed=True))
        self.inputs = valid + bad
        rng.shuffle(self.inputs)
        parts = [inp for inp in large if inp.kind == "partition"]
        braids = [inp for inp in large if inp.kind == "braid"]
        self.commands = [
            Command(["map", "--in", inp.text], self._map_checker(inp, False),
                    self._map_wrapped(inp, False))
            for inp in rng.sample(parts, self.SAMPLE)
        ] + [
            Command(["map", "--inverse", "--in", inp.text], self._map_checker(inp, True),
                    self._map_wrapped(inp, True))
            for inp in rng.sample(braids, self.SAMPLE)
        ] + [
            Command(["verify", "--suite", "routes", "--k", "3", "--n-max", "7"],
                    self._check_verify),
        ]

    @staticmethod
    def _input(kind, n, arcs, two_regular=False):
        covered = kind == "braid" and all(
            any(v in a for a in arcs) for v in range(1, n + 1))
        return DiagramInput(kind, n, arcs, checks.format_arcs(n, arcs),
                            two_regular=two_regular, covered=covered)

    def _parse(self, cls, text):
        n, arcs = self.lib.diagrams.parse_diagram(text)
        return cls(n, arcs)

    def operations(self):
        return [lambda tr, inp=inp: self.push(tr, inp) for inp in self.inputs]

    def warm_up(self, tr):
        for inp in self.inputs:
            if inp.n == min(self.SMALL) and not inp.malformed:
                self.push(tr, inp)

    def push(self, tr, inp):
        d, t, du = self.lib.diagrams, self.lib.tableaux, self.lib.duality
        partition = inp.kind == "partition"
        cls = d.PartitionDiagram if partition else d.BraidDiagram
        try:
            diagram = tr.call("diagrams.parse_validate", self._parse, cls, inp.text)
        except Exception as err:
            if inp.malformed:
                return {"rejected": type(err)}
            raise
        if inp.malformed:
            return {"rejected": None}
        res = {"diagram": diagram}
        res["text"] = tr.call("diagrams.format_diagram", d.format_diagram, diagram)
        res["crossing"] = tr.call("diagrams.crossing_number_of_arcs",
                                  d.crossing_number_of_arcs, diagram.arcs, not partition)
        tableau = tr.call("tableaux.diagram_to_tableau", t.diagram_to_tableau, diagram)
        res["tableau_valid"] = tr.call("tableaux.validate_tableau", t.validate_tableau, tableau)
        res["rows"] = tableau.max_rows()
        res["back"] = tr.call("tableaux.tableau_to_diagram", t.tableau_to_diagram, tableau)
        k = max(2, res["crossing"] + 1)
        if partition:
            image = tr.call("duality.contract_partition", du.contract_partition, diagram)
            res["direct"] = image
            res["via_tableaux"] = tr.call("duality.contract_partition_via_tableaux",
                                          du.contract_partition_via_tableaux, diagram)
            res["expanded"] = tr.call("duality.expand_braid", du.expand_braid, image)
            res["image_crossing"] = tr.call("diagrams.crossing_number_of_arcs",
                                            d.crossing_number_of_arcs, image.arcs, True)
            if inp.two_regular:
                braid = tr.call("duality.contract_two_regular",
                                du.contract_two_regular, diagram, k)
                res["restricted"] = braid
                res["restricted_back"] = tr.call("duality.expand_braid_no_isolated",
                                                 du.expand_braid_no_isolated, braid, k)
        else:
            image = tr.call("duality.expand_braid", du.expand_braid, diagram)
            res["expanded"] = image
            res["direct"] = tr.call("duality.contract_partition", du.contract_partition, image)
            res["via_tableaux"] = tr.call("duality.contract_partition_via_tableaux",
                                          du.contract_partition_via_tableaux, image)
            res["image_crossing"] = tr.call("diagrams.crossing_number_of_arcs",
                                            d.crossing_number_of_arcs, image.arcs, False)
            if inp.covered:
                part = tr.call("duality.expand_braid_no_isolated",
                               du.expand_braid_no_isolated, diagram, k)
                res["restricted"] = part
                res["restricted_back"] = tr.call("duality.contract_two_regular",
                                                 du.contract_two_regular, part, k)
        return res

    def _map_checker(self, inp, inverse):
        def check(code, stdout, stderr, results):
            if code != 0:
                return [f"map {inp.text!r}: exit code {code}"]
            return checks.check_map_output(stdout, inp.n, inp.arcs, inverse)
        return check

    def _map_wrapped(self, inp, inverse):
        d, du = self.lib.diagrams, self.lib.duality
        cls, fn = (d.BraidDiagram, du.expand_braid) if inverse else (
            d.PartitionDiagram, du.contract_partition)

        def wrapped(tr):
            diagram = tr.call("diagrams.parse_validate", self._parse, cls, inp.text)
            image = tr.call(f"duality.{fn.__name__}", fn, diagram)
            return tr.call("diagrams.format_diagram", d.format_diagram, image)
        return wrapped

    def _check_verify(self, code, stdout, stderr, results):
        report, problems = _json_report(code, stdout, "verify routes")
        if report is None:
            return problems
        want = sum(checks.count_noncrossing(n, 3) for n in range(1, 8))
        got = report["suites"][0]["details"].get("checked")
        if report.get("passed") is not True or got != want:
            return [f"verify routes: passed={report.get('passed')}, checked {got} != {want}"]
        return []

    def check_round(self, results, outputs):
        problems = []
        for inp, res in zip(self.inputs, results):
            if res is None:  # the operation failed; counted, not checked
                continue
            if not inp.malformed and inp.n <= 14 and inp.brute_crossing is None:
                inp.brute_crossing = checks.brute_crossing_number(inp.arcs, inp.kind == "braid")
            problems += checks.check_diagram_result(inp, res)
        rejected = sum(1 for res in results if res is not None and res.get("rejected"))
        return problems, {"diagrams.rejected_inputs": rejected}

    def split(self, tr) -> dict[str, int]:
        return {}


# -- rho3 --------------------------------------------------------------------------


class Rho3:
    """Every formula route for rho3 at fixed sizes, and the recurrence via the CLI."""

    name = "rho3"
    KERNEL = range(1, 21)
    WALK = range(1, 41)
    CLOSED = range(1, 151)
    ASYMPTOTIC = (50, 100, 200, 400, 800, 1600)
    TABLE = 4000
    #: int -> str refuses more than 4300 digits; rho3(n) passes that at n = 4786
    TOO_LONG = 5000

    def __init__(self, lib, seed: int):
        self.lib = lib
        w = lib.walks
        self.plan = (
            [("kernel", n, "walks.rho3_kernel_ct", w.rho3_kernel_ct) for n in self.KERNEL]
            + [("walk", n, "walks.quadrant_walk_counts", w.quadrant_walk_counts) for n in self.WALK]
            + [("closed", n, "walks.rho3_closed_form", w.rho3_closed_form) for n in self.CLOSED]
            + [("estimate", n, "walks.asymptotics", w.asymptotic_estimate) for n in self.ASYMPTOTIC]
            + [("fit", n, "walks.asymptotics", w.fit_leading_constant) for n in self.ASYMPTOTIC]
        )
        random.Random(seed).shuffle(self.plan)
        # These two spend their time turning big integers into decimal
        # strings, in C, which does not slow down with the reference loop:
        # over five runs their raw times spread 6 %, their scaled times 21 %.
        self.commands = [
            Command(["rho3", "--route", "recurrence", "--n-max", str(self.TABLE)],
                    self._check_table, self._wrapped(self.TABLE), scaled=False),
            Command(["rho3", "--route", "recurrence", "--n-max", str(self.TOO_LONG)],
                    self._check_too_long, self._wrapped(self.TOO_LONG), scaled=False),
        ]
        self.residual_checked = False

    def operations(self):
        return [lambda tr, p=p: tr.call(p[2], p[3], p[1]) for p in self.plan]

    def warm_up(self, tr):
        w = self.lib.walks
        w.rho3_kernel_ct(4), w.quadrant_walk_counts(4), w.rho3_closed_form(4)
        w.asymptotic_estimate(50), w.fit_leading_constant(50)

    def _wrapped(self, n_max):
        return lambda tr: tr.call("walks.rho3_recurrence", self.lib.walks.rho3_recurrence, n_max)

    def _check_table(self, code, stdout, stderr, results):
        # the table itself is checked with the other routes in check_round
        return [] if code == 0 else [f"rho3 --n-max {self.TABLE}: exit code {code}"]

    def _check_too_long(self, code, stdout, stderr, results):
        # Exit 1 is the known failure, counted as failed.  Once it succeeds,
        # its first TABLE entries must equal the table's.
        if code != 0:
            return []
        report, problems = _json_report(code, stdout, "rho3 --n-max 5000")
        if report is None:
            return problems
        counts = report.get("counts", {})
        if len(counts) != self.TOO_LONG:
            return [f"rho3 --n-max {self.TOO_LONG} gives {len(counts)} sizes"]
        return []

    def routes(self, results, outputs):
        routes = {"kernel": {}, "closed": {}, "walk": {}}
        estimates, fits = {}, {}
        for (route, n, _, _), value in zip(self.plan, results):
            if value is None:
                continue
            if route == "walk":
                a, b = value
                routes["walk"][n] = a - b
            elif route in routes:
                routes[route][n] = value
            else:
                (estimates if route == "estimate" else fits)[n] = value
        report, _ = _json_report(*outputs[0][:2], "rho3")
        if report is not None:
            counts = report.get("counts", {})
            routes["recurrence"] = {int(n): int(v) for n, v in counts.items()}
        return routes, estimates, fits

    def check_round(self, results, outputs):
        routes, estimates, fits = self.routes(results, outputs)
        problems = checks.check_rho3_routes(routes)
        bits = max(v.bit_length() for table in routes.values() for v in table.values())
        table = routes.get("recurrence", {})
        if sorted(table) != list(range(1, self.TABLE + 1)):
            return problems + [f"rho3 table covers {len(table)} sizes, not 1..{self.TABLE}"], {}
        problems += checks.check_recurrence(table)
        problems += checks.check_asymptotics(estimates, fits, table)
        problems += checks.check_large_n(table)
        if not self.residual_checked:
            w = self.lib.walks
            order = 2 * max(self.KERNEL) + 2
            if not w.kernel_residual(w.kernel_root_series(order)).is_zero():
                problems.append(f"kernel residual is not zero at order {order}")
            self.residual_checked = True
        return problems, {"walks.max_int_bits": bits}

    def split(self, tr) -> dict[str, int]:
        return {}


WORKLOADS = {w.name: w for w in (Enumerate, Bijection, Rho3)}
