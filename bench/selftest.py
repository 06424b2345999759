"""Self-test of the benchmark's checkers: each must pass a right answer and
reject a corrupted one.

    python3 bench/selftest.py

Run from the root of a checkout; exits 1 if any checker lets a corrupted
answer through or rejects a right one.
"""

from __future__ import annotations

import copy
import json
import sys

import checks
from run import load_library, run_cli
from tracing import Tracer
from workloads import Bijection, Enumerate, Rho3

failures: list[str] = []


def accepts(name, problems):
    if problems:
        failures.append(f"{name}: rejected a right answer: {problems[:3]}")


def rejects(name, problems):
    if not problems:
        failures.append(f"{name}: accepted a corrupted answer")


def test_references():
    for name, fn, want in (
        ("catalan", checks.catalan, [1, 1, 2, 5, 14, 42]),
        ("motzkin", checks.motzkin, [1, 1, 2, 4, 9, 21]),
        ("bell", checks.bell, [1, 1, 2, 5, 15, 52]),
    ):
        accepts(name, [] if [fn(n) for n in range(6)] == want else [name])
    crossing = checks.brute_crossing_number
    accepts("brute crossing", [] if (
        crossing([(1, 3), (2, 4)], False) == 2
        and crossing([(1, 2), (2, 3)], False) == 1
        and crossing([(1, 2), (2, 3)], True) == 2
        and crossing([(1, 1), (1, 4), (2, 5), (3, 6)], False) == 3
    ) else ["x"])


def test_enumerate(lib):
    wl = Enumerate(lib, 0)
    results = [op(Tracer()) for op in wl.operations()]
    outputs = [run_cli(lib.cli, c.argv) for c in wl.commands]
    accepts("count table", wl.check_round(results, outputs)[0])
    for key in (("P_k", 3, 7), ("B_k", 4, 6), ("P_k2", 2, 5), ("B_k_dagger", 3, 7)):
        bad = list(results)
        bad[wl.triples.index(key)] += 1
        rejects(f"count table {key}", wl.check_round(bad, outputs)[0])
    for command, (code, out, err) in zip(wl.commands, outputs):
        name = " ".join(command.argv[:3])
        accepts(name, command.check(code, out, err, results))
        report = json.loads(out)
        if "counts" in report:
            report["counts"]["8"] = str(int(report["counts"]["8"]) - 1)
        else:
            report["suites"][0]["details"]["cardinalities"]["7"] += 1
        rejects(name, command.check(code, json.dumps(report), err, results))
        rejects(f"{name} exit code", command.check(2, out, err, results))


def test_bijection(lib):
    wl = Bijection(lib, 0)
    results = [wl.push(Tracer(), inp) for inp in wl.inputs]
    accepts("diagram chain", wl.check_round(results, [])[0])
    corruptions = {
        "crossing": lambda r: r.__setitem__("crossing", r["crossing"] + 1),
        "text": lambda r: r.__setitem__("text", r["text"] + " "),
        "routes": lambda r: r.__setitem__("via_tableaux", r["expanded"]),
        # the image under the map, which is never the diagram itself
        "back": lambda r: r.__setitem__(
            "back", r["direct"] if r["direct"] != r["diagram"] else r["expanded"]),
        "rows": lambda r: r.__setitem__("rows", r["rows"] + 1),
    }
    for kind in ("partition", "braid"):
        index = next(i for i, inp in enumerate(wl.inputs) if inp.kind == kind
                     and not inp.malformed and inp.n <= 14)
        for name, corrupt in corruptions.items():
            bad = copy.copy(results)
            bad[index] = dict(results[index])
            corrupt(bad[index])
            rejects(f"diagram chain {kind} {name}", wl.check_round(bad, [])[0])
    for kind in ("two_regular", "covered"):
        index = next(i for i, inp in enumerate(wl.inputs) if getattr(wl.inputs[i], kind))
        bad = list(results)
        image = results[index]["direct" if kind == "two_regular" else "expanded"]
        bad[index] = dict(results[index], restricted_back=image)
        rejects(f"restriction {kind}", wl.check_round(bad, [])[0])
    index = next(i for i, inp in enumerate(wl.inputs) if inp.malformed)
    for outcome in (None, TypeError):
        bad = list(results)
        bad[index] = {"rejected": outcome}
        rejects(f"malformed text rejected as {outcome}", wl.check_round(bad, [])[0])
    for command in wl.commands:
        code, out, err = run_cli(lib.cli, command.argv)
        name = " ".join(command.argv[:2])
        accepts(name, command.check(code, out, err, results))
        if command.argv[0] == "map":
            bad = out.replace("(", "(1", 1)
        else:
            report = json.loads(out)
            report["suites"][0]["details"]["checked"] -= 1
            bad = json.dumps(report)
        rejects(name, command.check(code, bad, err, results))


def test_rho3(lib):
    wl = Rho3(lib, 0)
    results = [op(Tracer()) for op in wl.operations()]
    outputs = [run_cli(lib.cli, c.argv) for c in wl.commands]
    accepts("rho3 round", wl.check_round(results, outputs)[0])
    accepts("rho3 too long", wl.commands[1].check(*outputs[1], results))
    # the n^-4 law tells a shift of 1e-6 at n = 400 from the error there, 2.4e-6
    for route, n in (("kernel", max(wl.KERNEL)), ("walk", max(wl.WALK)), ("closed", 100),
                     ("estimate", 400), ("fit", 400)):
        index = next(i for i, p in enumerate(wl.plan) if p[:2] == (route, n))
        bad = list(results)
        value = bad[index]
        if route == "walk":
            bad[index] = (value[0] + 1, value[1])
        elif route in ("estimate", "fit"):
            bad[index] = value * (1 + value.__class__("1e-6"))
        else:
            bad[index] = value + 1
        rejects(f"rho3 {route}", wl.check_round(bad, outputs)[0])
    report = json.loads(outputs[0][1])

    def with_table(table):
        return [(0, json.dumps(table), "")] + outputs[1:]

    for n in ("100", "2345", "4000"):
        bad = copy.deepcopy(report)
        bad["counts"][n] = str(int(bad["counts"][n]) + 1)
        rejects(f"rho3 table at {n}", wl.check_round(results, with_table(bad))[0])
    del report["counts"]["4000"]
    rejects("rho3 short table", wl.check_round(results, with_table(report))[0])
    rejects("rho3 table exit code", wl.commands[0].check(1, "", "", results))


def main() -> int:
    lib = load_library()
    test_references()
    test_enumerate(lib)
    test_bijection(lib)
    test_rho3(lib)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest:", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
