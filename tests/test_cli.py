"""Command-line interface: payloads, formats, exit codes, determinism."""

import json
import os
import shlex
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from itertools import chain, islice
from pathlib import Path

import pytest

from noncrossing import cli, diagrams, duality, enumeration, tableaux, verify, walks

_REPORTS = json.loads(
    (Path(__file__).resolve().parent.parent / "testdata" / "cli_reports.json").read_text()
)


def run_json(capsys, *argv):
    status = cli.run(list(argv))
    out = capsys.readouterr().out
    return status, json.loads(out)


def run_text(capsys, *argv):
    status = cli.run(list(argv))
    return status, capsys.readouterr().out


class TestCount:
    def test_json_payload(self, capsys, golden):
        status, report = run_json(
            capsys, "count", "--class", "partitions", "--k", "3", "--n-max", "6"
        )
        assert status == 0
        assert report["command"] == "count"
        assert report["counts"] == {
            n: golden["counts"]["partitions_k3"][n] for n in map(str, range(1, 7))
        }

    def test_single_n(self, capsys):
        status, report = run_json(
            capsys, "count", "--class", "braids-noiso", "--k", "3", "--n", "5"
        )
        assert status == 0 and report["counts"] == {"5": "51"}

    def test_csv(self, capsys):
        status, out = run_text(
            capsys, "count", "--class", "2regular", "--k", "3", "--n-max", "3",
            "--format", "csv",
        )
        assert status == 0
        assert out.splitlines() == [
            "class,k,route,n,count",
            "2regular,3,brute,1,1",
            "2regular,3,brute,2,1",
            "2regular,3,brute,3,2",
        ]

    def test_formula_route(self, capsys):
        status, report = run_json(
            capsys, "count", "--class", "braids-noiso", "--k", "3", "--n", "40",
            "--route", "recurrence",
        )
        assert status == 0
        assert report["counts"]["40"] == str(
            __import__("noncrossing.walks", fromlist=["x"]).rho3_closed_form(40)
        )

    def test_formula_route_computes_only_the_sizes_asked_for(self, capsys, monkeypatch):
        calls = []
        closed_form = walks.rho3_closed_form
        monkeypatch.setattr(walks, "rho3_closed_form", lambda n: calls.append(n) or closed_form(n))
        status, report = run_json(
            capsys, "count", "--class", "braids-noiso", "--k", "3", "--n", "300",
            "--route", "closed",
        )
        assert status == 0 and list(report["counts"]) == ["300"]
        assert calls == [300]

    def test_formula_route_rejects_size_zero(self, capsys):
        for route in ("kernel", "closed", "recurrence"):
            argv = ["count", "--class", "braids-noiso", "--n", "0", "--route", route]
            assert cli.run(argv) == 1, route
        capsys.readouterr()

    @pytest.mark.parametrize("route", ["brute", "closed"])
    @pytest.mark.parametrize("k", [0, 1])
    def test_k_below_two_is_refused_on_every_route(self, capsys, route, k):
        argv = ["count", "--class", "braids-noiso", "--k", str(k), "--n", "3", "--route", route]
        assert cli.run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err.splitlines()[-1]) == {
            "error": "ValueError", "message": f"k must be >= 2, got {k}"
        }

    def test_formula_route_needs_the_right_class(self, capsys):
        status = cli.run(["count", "--class", "partitions", "--n", "4",
                          "--route", "recurrence"])
        captured = capsys.readouterr()
        assert status == 1
        assert json.loads(captured.err.splitlines()[-1])["error"] == "ValueError"

    def test_a_retired_jobs_option_is_a_usage_error(self, capsys):
        assert cli.run(["count", "--class", "partitions", "--n", "3", "--jobs", "2"]) == 1
        assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == "usage-error"

    def test_empty_range_rejected(self, capsys):
        assert cli.run(["count", "--class", "partitions", "--n-max", "0"]) == 1
        assert cli.run(["rho3", "--n-max", "0"]) == 1
        capsys.readouterr()

    def test_args_echoed(self, capsys):
        _, report = run_json(capsys, "count", "--class", "braids", "--n", "3")
        assert report["args"]["class_name"] == "braids"
        assert report["args"]["n"] == 3


class TestEnum:
    def test_text_lines(self, capsys):
        status, out = run_text(capsys, "enum", "--class", "braids-noiso", "--n", "2")
        assert status == 0
        assert out.splitlines() == ["n=2; arcs=(1,2)", "n=2; arcs=(1,1)(2,2)"]

    def test_json(self, capsys):
        status, report = run_json(
            capsys, "enum", "--class", "partitions", "--n", "2", "--format", "json"
        )
        assert status == 0
        assert report["diagrams"] == ["n=2; arcs=(1,2)", "n=2; arcs="]

    def test_text_is_written_as_it_is_generated(self, monkeypatch):
        # 19 095 lines of 638 085 characters; joined before they were
        # written, they peaked at about four times that
        sink = _CountingSink()
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            status = cli.run(["enum", "--class", "partitions", "--k", "3", "--n", "9"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert status == 0 and (sink.lines, sink.length) == (19_095, 638_085)
        assert peak < sink.length

    def test_json_is_written_as_it_is_generated(self, monkeypatch):
        # 771 986 characters; with the diagrams listed before the report
        # was encoded, they peaked at about 2.8 times that
        reports = []
        chunks = cli._report_chunks

        def kept(report):
            reports.append(report)
            return chunks(report)

        sink = _CountingSink()
        monkeypatch.setattr(sys, "stdout", sink)
        monkeypatch.setattr(cli, "_report_chunks", kept)
        argv = ["enum", "--class", "partitions", "--k", "3", "--n", "9", "--format", "json"]
        tracemalloc.start()
        try:
            status = cli.run(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        [report] = reports
        assert status == 0 and sink.length > 700_000
        assert peak < sink.length
        assert next(report["diagrams"], None) is None  # every row was written

    @pytest.mark.parametrize("tag", sorted(enumeration.GENERATORS))
    def test_json_rows_are_the_encoders_bytes(self, capsys, monkeypatch, tag):
        name = {tag: name for name, tag in cli._CLASS_TAGS.items()}[tag]
        monkeypatch.setattr(cli.time, "perf_counter", lambda: 0.0)
        for n in (0, 1, 4):
            assert cli.run(["enum", "--class", name, "--n", str(n), "--format", "json"]) == 0
            report = {
                "command": "enum",
                "args": {"class_name": name, "k": 3, "n": n, "format": "json"},
                "version": cli.__version__,
                "elapsed_seconds": 0.0,
                "class": name, "k": 3, "n": n,
                "diagrams": [diagrams.format_diagram(d)
                             for d in enumeration.GENERATORS[tag](n, 3)],
            }
            assert capsys.readouterr().out == cli._REPORT_ENCODER.encode(report) + "\n"

    def test_json_elapsed_time_ends_at_the_first_byte(self, capsys, monkeypatch):
        # the first diagram is timed, the ones written after it are not
        now = [0.0]

        def generator(n, k):
            now[0] += 1
            yield diagrams.PartitionDiagram(n)
            now[0] += 100
            yield diagrams.PartitionDiagram(n, ((1, 2),))

        monkeypatch.setitem(enumeration.GENERATORS, "P_k", generator)
        monkeypatch.setattr(cli.time, "perf_counter", lambda: now[0])
        status, report = run_json(capsys, "enum", "--class", "partitions", "--n", "2",
                                  "--format", "json")
        assert status == 0 and report["diagrams"] == ["n=2; arcs=", "n=2; arcs=(1,2)"]
        assert report["elapsed_seconds"] == 1.0

    @pytest.mark.parametrize("argv,diagnostic", [
        ("--k 1 --n 3", {"error": "ValueError", "message": "k must be >= 2, got 1"}),
        ("--n 13", {"error": "RangeGuardError",
                    "message": "P_k over [13] is charged Bell(13) = 27644437, "
                               "over the brute-force budget of 10000000"}),
    ], ids=["k", "budget"])
    def test_a_json_refusal_writes_nothing_to_stdout(self, capsys, argv, diagnostic):
        argv = ["enum", "--class", "partitions", *argv.split(), "--format", "json"]
        assert cli.run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == diagnostic

    @pytest.mark.parametrize("argv,diagnostic", [
        ("--k 1 --n 3", {"error": "ValueError", "message": "k must be >= 2, got 1"}),
        ("--n 13", {"error": "RangeGuardError",
                    "message": "P_k over [13] is charged Bell(13) = 27644437, "
                               "over the brute-force budget of 10000000"}),
    ], ids=["k", "budget"])
    def test_a_refusal_writes_nothing_to_stdout(self, capsys, argv, diagnostic):
        assert cli.run(["enum", "--class", "partitions", *argv.split()]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == diagnostic


class TestMap:
    def test_forward_example(self, capsys):
        status, out = run_text(capsys, "map", "--in", "n=2; arcs=(1,2)")
        assert status == 0 and out.strip() == "n=1; arcs=(1,1)"

    def test_inverse(self, capsys):
        status, out = run_text(capsys, "map", "--in", "n=1; arcs=(1,1)", "--inverse")
        assert status == 0 and out.strip() == "n=2; arcs=(1,2)"

    def test_json_report(self, capsys):
        status, report = run_json(
            capsys, "map", "--in", "n=4; arcs=(1,3)(2,4)", "--format", "json"
        )
        assert status == 0 and report["output"] == "n=3; arcs=(1,2)(2,3)"

    def test_invalid_diagram_is_an_error(self, capsys):
        status = cli.run(["map", "--in", "n=2; arcs=(1,1)"])
        captured = capsys.readouterr()
        assert status == 1 and "error" in captured.err

    @pytest.mark.parametrize("text", [
        "n=5; arcs=" + "(1,2)" * 20_000 + "x",       # unclosed at the end
        "n=5; arcs=x" + "(1,2)" * 20_000,            # unopened at the start
        "n=5; arcs=" + "(1,2)" * 20_000 + "(1,x)",   # the last arc
        "n=5; arcs=(1," + "2" * 100_000 + ")",        # an endpoint past int()'s digit limit
        "m=5; arcs=" + "(1,2)" * 20_000,             # the head
    ], ids=["end", "start", "last-arc", "long-endpoint", "head"])
    def test_malformed_text_is_not_echoed(self, capsys, text):
        # the diagnostic quotes a short excerpt, never the whole input
        assert cli.run(["map", "--in", text]) == 1
        err = capsys.readouterr().err
        assert json.loads(err.splitlines()[-1])["error"] == "ValueError"
        assert len(err) < 200, err

    def test_malformed_arc_is_named(self, capsys):
        assert cli.run(["map", "--in", "n=4; arcs=(1,2)(3,x)"]) == 1
        assert json.loads(capsys.readouterr().err.splitlines()[-1]) == {
            "error": "ValueError", "message": "bad arc 2: '(3,x)'",
        }


class TestVerify:
    def test_single_suite(self, capsys):
        status, report = run_json(
            capsys, "verify", "--suite", "duality", "--n-max", "5", "--k", "3"
        )
        assert status == 0 and report["passed"] is True
        [suite] = report["suites"]
        assert suite["details"]["cardinalities"] == {
            "2": 2, "3": 5, "4": 15, "5": 52,
        }

    def test_all_suites(self, capsys):
        status, report = run_json(capsys, "verify", "--n-max", "4")
        assert status == 0
        assert {s["name"] for s in report["suites"]} == set(verify.SUITE_NAMES)

    def test_duality_suite_at_depth(self, capsys):
        status, report = run_json(
            capsys, "verify", "--suite", "duality", "--n-max", "7", "--k", "3"
        )
        assert status == 0
        assert report["suites"][0]["details"]["cardinalities"]["7"] == 859

    def test_bijection_suites_hold_no_sets(self):
        # each suite keeps two counters per n; with a set of the images and
        # one of the image class, duality peaked at about 3.0 MB here
        for name, bound in (("duality", 1_000_000), ("restriction", 250_000)):
            tracemalloc.start()
            try:
                [report] = verify.run_suites([name], 3, 8)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert report["passed"] is True and peak < bound, (name, peak)

    def test_walks_suite_walks_once(self, capsys, monkeypatch):
        calls = []
        table = walks._quadrant_walk_table

        def counted(n_max):
            calls.append(n_max)
            return table(n_max)

        monkeypatch.setattr(walks, "_quadrant_walk_table", counted)
        status, report = run_json(capsys, "verify", "--suite", "walks", "--n-max", "40")
        assert status == 0 and report["passed"] is True
        assert calls == [40]

    def test_failure_exit_code_and_counterexample(self, capsys, monkeypatch):
        def broken(k, n_max):
            return {
                "name": "duality",
                "passed": False,
                "details": {"reason": "synthetic"},
                "counterexample": "n=1; arcs=",
            }

        duality = verify._SUITES["duality"]._replace(check=broken)
        monkeypatch.setitem(verify._SUITES, "duality", duality)
        status, report = run_json(capsys, "verify", "--suite", "duality")
        assert status == 2
        assert report["passed"] is False
        assert report["suites"][0]["counterexample"] == "n=1; arcs="


class TestSuiteFailures:
    """Each suite's failure names what disagreed and a counterexample."""

    def _run(self, capsys, suite, n_max=5):
        status, report = run_json(capsys, "verify", "--suite", suite, "--n-max", str(n_max))
        assert status == 2 and report["passed"] is False
        [failed] = report["suites"]
        assert failed["passed"] is False and failed["details"]["reason"]
        assert failed["counterexample"] is not None
        return failed

    def test_rho3_kernel_off_by_one(self, capsys, monkeypatch):
        routes = verify._FORMULA_ROUTES["B_k_dagger", 3]
        kernel = routes["kernel"].count
        monkeypatch.setitem(routes, "kernel", routes["kernel"]._replace(
            count=lambda sizes: {n: v + (n == 5) for n, v in kernel(sizes).items()},
        ))
        failed = self._run(capsys, "rho3", 8)
        assert failed["details"]["route"] == "kernel"
        assert (failed["details"]["n"], failed["details"]["k"]) == (5, 3)
        assert failed["counterexample"] == {"kernel": "52", "closed": "51"}

    def test_duality_collision(self, capsys, monkeypatch):
        contract = duality.contract_partition
        monkeypatch.setattr(
            duality, "contract_partition",
            lambda p: contract(p) if p.n < 4 else contract(type(p)(p.n)),
        )
        failed = self._run(capsys, "duality")
        assert (failed["details"]["n"], failed["details"]["k"]) == (4, 3)
        assert failed["counterexample"].startswith("n=4; arcs=")

    def test_duality_missed_braid(self, capsys, monkeypatch):
        # without the partition 1234, its image (1,1)(2,2)(3,3) is missed
        gen = enumeration.gen_partitions_k
        monkeypatch.setattr(
            enumeration, "gen_partitions_k",
            lambda n, k: islice(gen(n, k), int(n == 4), None),
        )
        failed = self._run(capsys, "duality")
        assert (failed["details"]["n"], failed["details"]["k"]) == (4, 3)
        assert failed["counterexample"] == "n=3; arcs=(1,1)(2,2)(3,3)"

    @pytest.mark.parametrize("broken", ["count_class", "domain"])
    def test_duality_sizes_disagree(self, capsys, monkeypatch, broken):
        # every image is a member and the image set is the class, but the
        # domain is not as large as count_class says
        if broken == "count_class":
            count = enumeration.count_class
            monkeypatch.setattr(enumeration, "count_class",
                                lambda tag, k, n: count(tag, k, n) + (n == 3))
            sizes = {"domain": 15, "count_class": 16, "image_class": 15}
        else:
            gen = enumeration.gen_partitions_k
            monkeypatch.setattr(enumeration, "gen_partitions_k",
                                lambda n, k: chain(gen(n, k), islice(gen(n, k), int(n == 4))))
            sizes = {"domain": 16, "count_class": 15, "image_class": 15}
        failed = self._run(capsys, "duality")
        assert (failed["details"]["n"], failed["details"]["k"]) == (4, 3)
        assert failed["details"]["reason"] == "the sizes disagree"
        assert failed["counterexample"] == sizes

    def test_duality_checks_the_inverse(self, capsys, monkeypatch):
        # an inverse that drops the first loop passes every other check
        expand = duality.expand_braid

        def drop_first_loop(b):
            first = [(i, j) for i, j in b.arcs if i == j][:1]
            return expand(type(b)(b.n, tuple(a for a in b.arcs if a not in first)))

        monkeypatch.setattr(duality, "expand_braid", drop_first_loop)
        failed = self._run(capsys, "duality")
        assert (failed["details"]["n"], failed["details"]["k"]) == (2, 3)
        assert failed["details"]["reason"] == "round trip broken"
        assert failed["counterexample"] == "n=2; arcs=(1,2)"

    def test_restriction(self, capsys, monkeypatch):
        monkeypatch.setattr(duality, "expand_braid_no_isolated", lambda b, k: None)
        failed = self._run(capsys, "restriction")
        assert (failed["details"]["n"], failed["details"]["k"]) == (2, 3)
        assert failed["counterexample"] == "n=2; arcs="

    def test_restriction_image_outside_the_class(self, capsys, monkeypatch):
        # mutually inverse, one-to-one and of the right size, but the images
        # of the 2-regular partitions whose contraction loops vertex 1 leave
        # that vertex isolated, so they are not braids without isolated points
        contract, expand = duality.contract_two_regular, duality.expand_braid_no_isolated

        def drop_loop_1(p, k):
            b = contract(p, k)
            return type(b)(b.n, tuple(a for a in b.arcs if a != (1, 1)))

        def loop_1(b, k):
            arcs = b.arcs + ((1, 1),) if 1 in diagrams.isolated(b.n, b.arcs) else b.arcs
            return expand(type(b)(b.n, arcs), k)

        monkeypatch.setattr(duality, "contract_two_regular", drop_loop_1)
        monkeypatch.setattr(duality, "expand_braid_no_isolated", loop_1)
        failed = self._run(capsys, "restriction")
        assert (failed["details"]["n"], failed["details"]["k"]) == (2, 3)
        assert failed["details"]["reason"] == "the images are not gen_braids_no_isolated(1, 3)"
        assert failed["counterexample"] == "n=1; arcs="

    def test_routes(self, capsys, monkeypatch):
        monkeypatch.setattr(duality, "contract_partition_via_tableaux", lambda p: None)
        failed = self._run(capsys, "routes")
        assert failed["details"]["route"] == "via_tableaux"
        assert (failed["details"]["n"], failed["details"]["k"]) == (1, 3)
        assert failed["counterexample"] == "n=1; arcs="

    def test_tableau(self, capsys, monkeypatch):
        monkeypatch.setattr(tableaux, "tableau_to_diagram", lambda t: None)
        failed = self._run(capsys, "tableau")
        assert (failed["details"]["n"], failed["details"]["k"]) == (0, 3)
        assert failed["counterexample"] == "n=0; arcs="

    def test_walks(self, capsys, monkeypatch):
        table = walks._quadrant_walk_table
        monkeypatch.setattr(
            walks, "_quadrant_walk_table",
            lambda n_max: [(a + (n == 3), b) for n, (a, b) in enumerate(table(n_max))],
        )
        failed = self._run(capsys, "walks")
        assert (failed["details"]["n"], failed["details"]["k"]) == (3, 3)
        assert failed["counterexample"]["closed"] == "5"

    def test_series_corrupted_root(self, capsys, monkeypatch):
        # the online root checks its own residual (test_series_suite); a
        # root corrupted after that check fails the coefficient check
        root = walks._online_root

        def corrupted(half_order):
            rows, packed, squares, bits = root(half_order)
            packed[2] += 1  # the x^0 slot of W_2
            return rows, packed, squares, bits

        monkeypatch.setattr(walks, "_online_root", corrupted)
        failed = self._run(capsys, "series")
        # Y gains x^-1 t^4, the coefficient of power 1 at m = -1, n = 1
        assert failed["details"]["check"] == "coefficient"
        assert (failed["details"]["power"], failed["details"]["m"], failed["details"]["n"]) \
            == (1, -1, 1)
        assert failed["counterexample"] == {"series": "2", "binomial_sum": "1"}

    def test_series_wrong_cube(self, capsys, monkeypatch):
        # the suite reads Y0^3 from the rows the kernel route reads, so a
        # wrong cube identity fails it, not only the rho3 agreement
        cube = walks._cube_row
        monkeypatch.setattr(walks, "_cube_row", lambda *args: cube(*args) + (args[-1] == 4))
        failed = self._run(capsys, "series")
        # [s^4] W^3 gains x^0: Y0^3 gains x^-1 t^8, power 3 at m = -1, n = 3
        assert failed["details"]["check"] == "coefficient"
        assert (failed["details"]["power"], failed["details"]["m"], failed["details"]["n"]) \
            == (3, -1, 3)
        assert int(failed["counterexample"]["series"]) == (
            int(failed["counterexample"]["binomial_sum"]) + 1
        )

    def test_series_symmetry(self, capsys, monkeypatch):
        monkeypatch.setattr(walks, "kernel_symmetry_holds", lambda: False)
        failed = self._run(capsys, "series")
        assert failed["details"]["check"] == "symmetry"

    def test_series_coefficient(self, capsys, monkeypatch):
        coefficient = walks.root_power_coefficient
        monkeypatch.setattr(
            walks, "root_power_coefficient",
            lambda k, m, n: coefficient(k, m, n) + ((k, m, n) == (2, 1, 4)),
        )
        failed = self._run(capsys, "series")
        details = failed["details"]
        assert (details["check"], details["power"], details["m"], details["n"]) == (
            "coefficient", 2, 1, 4,
        )
        assert int(failed["counterexample"]["binomial_sum"]) == (
            int(failed["counterexample"]["series"]) + 1
        )


class TestRho3:
    def test_all_routes_agree(self, capsys):
        status, report = run_json(capsys, "rho3", "--n-max", "6")
        assert status == 0 and report["agreement"] is True
        assert report["routes"]["closed"]["6"] == "191"
        assert set(report["routes"]) == {"brute", "kernel", "closed", "recurrence"}

    def test_brute_is_capped(self, capsys):
        status, report = run_json(capsys, "rho3", "--n-max", "10")
        assert status == 0
        assert max(map(int, report["routes"]["brute"])) == verify._BRUTE_CAP
        assert max(map(int, report["routes"]["closed"])) == 10

    @pytest.mark.parametrize("argv", ["rho3 --route all --n-max 6",
                                      "verify --suite rho3 --n-max 6"])
    def test_one_agreement_check(self, capsys, monkeypatch, argv):
        calls = []
        agreement = verify.rho3_agreement
        monkeypatch.setattr(verify, "rho3_agreement",
                            lambda n_max: calls.append(n_max) or agreement(n_max))
        assert cli.run(argv.split()) == 0
        capsys.readouterr()
        assert calls == [6]

    def test_kernel_route_matches_closed_form(self, capsys):
        status, kernel = run_json(capsys, "rho3", "--n-max", "12", "--route", "kernel")
        assert status == 0
        status, closed = run_json(capsys, "rho3", "--n-max", "12", "--route", "closed")
        assert status == 0
        assert kernel["counts"] == closed["counts"]
        assert sorted(map(int, kernel["counts"])) == list(range(1, 13))

    def test_single_route_csv(self, capsys):
        status, out = run_text(
            capsys, "rho3", "--n-max", "3", "--route", "closed", "--format", "csv"
        )
        assert status == 0
        assert out.splitlines() == ["route,n,value", "closed,1,1", "closed,2,2", "closed,3,5"]

    def test_all_routes_have_no_csv(self, capsys, monkeypatch):
        # the agreement report has no CSV form; refused before any route runs
        monkeypatch.setattr(verify, "rho3_agreement", _unreachable)
        assert cli.run(["rho3", "--route", "all", "--n-max", "6", "--format", "csv"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        diagnostic = json.loads(captured.err.splitlines()[-1])
        assert diagnostic["error"] == "ValueError"
        assert "--route all" in diagnostic["message"]
        assert "--format csv" in diagnostic["message"]


class TestAsympt:
    def test_payload(self, capsys):
        status, report = run_json(capsys, "asympt", "--n", "100")
        assert status == 0
        assert report["exact"].startswith("103651716477775")
        assert float(report["relative_error"]) < 1e-2


class TestRender:
    def test_svg_on_stdout(self, capsys):
        status, out = run_text(capsys, "render", "--in", "n=3; arcs=(1,3)(2,2)")
        assert status == 0
        assert out.startswith("<svg") and out.strip().endswith("</svg>")


class TestBudgets:
    @pytest.mark.parametrize("argv", [
        "rho3 --route brute --n-max 14",
        "enum --class partitions --n 14",
        "verify --suite tableau --n-max 14",
        "count --class partitions --n 14",
    ])
    def test_brute_force_over_budget_is_refused(self, capsys, argv):
        assert cli.run(argv.split()) == 1
        err = capsys.readouterr().err
        assert json.loads(err.splitlines()[-1])["error"] == "RangeGuardError"

    @pytest.mark.parametrize("argv", [
        "count --class braids --k 3 --n 12",
        "enum --class braids --n 12",
        "verify --suite tableau --n-max 12",
        "verify --suite all --n-max 12",
    ])
    def test_braids_are_charged_bell_of_n_plus_1(self, capsys, monkeypatch, argv):
        # the braids over [12] number up to Bell(13) > 10^7 although
        # Bell(12) is within the budget; every stream reads the one
        # growth-string walk, so none runs before the refusal
        monkeypatch.setattr(enumeration, "_growth_walk", _unreachable)
        assert cli.run(argv.split()) == 1
        assert json.loads(capsys.readouterr().err.splitlines()[-1]) == {
            "error": "RangeGuardError",
            "message": "B_k over [12] is charged Bell(13) = 27644437, "
                       "over the brute-force budget of 10000000",
        }

    @pytest.mark.parametrize("stream", [
        *(pytest.param(lambda tag=tag: enumeration.count_class(tag, 3, 4),
                       id=f"count_class-{tag}")
          for tag in sorted(enumeration.GENERATORS)),
        *(pytest.param(lambda tag=tag: next(enumeration.GENERATORS[tag](4, 3)),
                       id=f"GENERATORS-{tag}")
          for tag in sorted(enumeration.GENERATORS)),
        pytest.param(lambda: next(enumeration.gen_set_partitions(4)),
                     id="gen_set_partitions"),
        pytest.param(lambda: next(enumeration.restricted_growth_strings(4)),
                     id="restricted_growth_strings"),
    ])
    def test_every_stream_trips_the_walk(self, monkeypatch, stream):
        # the control for the tests that patch the walk to show that no
        # work started: every stream of enumeration reads it
        monkeypatch.setattr(enumeration, "_growth_walk", _unreachable)
        with pytest.raises(AssertionError, match="work started"):
            stream()

    def test_braids_over_11_are_admitted(self, monkeypatch):
        monkeypatch.setattr(enumeration, "_growth_walk", _unreachable)
        with pytest.raises(AssertionError, match="work started"):
            cli.run(["count", "--class", "braids", "--k", "3", "--n", "11"])

    @pytest.mark.parametrize("argv", [
        *(f"count --class {name} --n" for name in ("partitions", "2regular",
                                                   "braids", "braids-noiso")),
        "enum --class partitions --n",
        # every suite, and all; series is left out, as its cost is fixed
        # (order 40, n <= 10) whatever --n-max says
        *(f"verify --suite {suite} --n-max"
          for suite in ("all", *verify.SUITE_NAMES) if suite != "series"),
        "rho3 --route brute --n-max",
    ])
    def test_refusal_does_not_depend_on_the_size(self, capsys, monkeypatch, argv):
        # only the least Bell number over the budget is ever formed
        bell_number = enumeration.bell_number

        def bounded_bell(m):
            if m > 20:
                raise AssertionError(f"Bell({m}) was computed")
            return bell_number(m)

        monkeypatch.setattr(enumeration, "bell_number", bounded_bell)
        monkeypatch.setattr(enumeration, "_growth_walk", _unreachable)
        assert cli.run([*argv.split(), str(10**6)]) == 1
        assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == "RangeGuardError"

    @pytest.mark.parametrize("suite", ["all", *verify.SUITE_NAMES])
    def test_verify_rejects_an_empty_range(self, capsys, suite):
        assert cli.run(["verify", "--suite", suite, "--n-max", "-3"]) == 1
        diagnostic = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert diagnostic == {"error": "ValueError", "message": "--n-max must be at least 1"}

    @pytest.mark.parametrize("suite,named", [
        ("duality", "the duality suite starts"),
        ("restriction", "the restriction suite starts"),
        ("all", "the duality and restriction suites start"),
    ])
    def test_verify_rejects_a_bijection_suite_below_n_2(self, capsys, monkeypatch, suite, named):
        # the maps go from [n] to [n - 1], so n = 1 is no case of theirs
        monkeypatch.setattr(enumeration, "_growth_walk", _unreachable)
        assert cli.run(["verify", "--suite", suite, "--n-max", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err.splitlines()[-1]) == {
            "error": "ValueError", "message": f"{named} at n = 2, got n_max = 1",
        }

    @pytest.mark.parametrize("argv", [
        "rho3 --route all --n-max 121",
        f"rho3 --route all --n-max {10**18}",
        "verify --suite rho3 --n-max 121",
    ])
    def test_every_rho3_route_is_admitted_before_brute_force(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(enumeration, "_growth_walk", _unreachable)
        assert cli.run(argv.split()) == 1
        diagnostic = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert diagnostic["error"] == "RangeGuardError"
        assert "'kernel'" in diagnostic["message"]

    @pytest.mark.parametrize("route", ["brute", "kernel", "closed", "recurrence"])
    def test_count_admits_once(self, capsys, monkeypatch, route):
        calls = []
        admit = verify._admit
        monkeypatch.setattr(verify, "_admit", lambda *a: calls.append(a) or admit(*a))
        argv = f"count --class braids-noiso --k 3 --n-max 5 --route {route}"
        assert cli.run(argv.split()) == 0
        capsys.readouterr()
        assert len(calls) == 1

    def test_unknown_route_names_the_routes(self, capsys):
        assert cli.run(["count", "--class", "braids-noiso", "--n", "4", "--route", "x"]) == 1
        message = json.loads(capsys.readouterr().err.splitlines()[-1])["message"]
        assert "brute, kernel, closed, recurrence" in message


def _corrupt_kernel_root(monkeypatch):
    # the x = 1 pass that sizes the online pass's slots reads zero, so they
    # shrink to one byte, too narrow from W_5 on, and the kernel root's own
    # check raises ArithmeticError
    online = walks._online_pass
    monkeypatch.setattr(
        walks, "_online_pass", lambda h, bits: online(h, bits) if bits else ([0], [0])
    )


class TestLibraryArithmeticErrors:
    def test_cli_exits_1_with_a_diagnostic(self, capsys, monkeypatch):
        _corrupt_kernel_root(monkeypatch)
        argv = ["count", "--class", "braids-noiso", "--n", "5", "--route", "kernel"]
        assert cli.run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err.splitlines()[-1]) == {
            "error": "ArithmeticError",
            "message": "kernel root is not a fixed point at order 12",
        }

    def _failed(self, capsys, suite):
        status, report = run_json(capsys, "verify", "--suite", suite, "--n-max", "5")
        assert status == 2 and report["passed"] is False
        [failed] = report["suites"]
        assert failed["passed"] is False
        assert failed["counterexample"]["error"] == "ArithmeticError"
        return failed

    def test_series_suite(self, capsys, monkeypatch):
        _corrupt_kernel_root(monkeypatch)
        failed = self._failed(capsys, "series")
        assert failed["details"]["route"] == "kernel" and failed["details"]["k"] == 3
        assert (failed["details"]["check"], failed["details"]["n"]) == ("kernel", 19)
        assert failed["counterexample"]["message"] == (
            "kernel root is not a fixed point at order 40"
        )

    def test_rho3_suite(self, capsys, monkeypatch):
        _corrupt_kernel_root(monkeypatch)
        failed = self._failed(capsys, "rho3")
        assert (failed["details"]["route"], failed["details"]["n"]) == ("kernel", 5)
        assert "order 12" in failed["counterexample"]["message"]

    def test_rho3_all_routes(self, capsys, monkeypatch):
        # an agreement check that a route cannot finish fails, as the
        # rho3 suite does; the tables hold the routes before it
        _corrupt_kernel_root(monkeypatch)
        status, report = run_json(capsys, "rho3", "--route", "all", "--n-max", "5")
        assert status == 2 and report["agreement"] is False
        assert list(report["routes"]) == ["brute"]

    def test_walks_suite(self, capsys, monkeypatch):
        # every binomial read as 1: the closed form is not integral at n = 1
        monkeypatch.setattr(walks, "_binomial_row", lambda top: [1] * (top + 1))
        failed = self._failed(capsys, "walks")
        assert (failed["details"]["route"], failed["details"]["n"]) == ("closed", 1)
        assert "not integral" in failed["counterexample"]["message"]


_K3_SUITES = [name for name in verify.SUITE_NAMES if verify._SUITES[name].k == 3]


@pytest.mark.parametrize("suite", _K3_SUITES)
def test_k3_suite_refuses_another_k(capsys, suite):
    assert cli.run(["verify", "--suite", suite, "--k", "7", "--n-max", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err.splitlines()[-1]) == {
        "error": "ValueError",
        "message": f"the {suite} suite checks k = 3 only, not k = 7",
    }


def _unreachable(*args):
    raise AssertionError("work started before the cap was checked")


def _no_suite_runs(monkeypatch):
    for name, suite in verify._SUITES.items():
        monkeypatch.setitem(verify._SUITES, name, suite._replace(check=_unreachable))


@pytest.mark.parametrize("n_max", [0, -5])
@pytest.mark.parametrize("suite", verify.SUITE_NAMES)
def test_run_suites_refuses_a_range_with_no_n(monkeypatch, suite, n_max):
    _no_suite_runs(monkeypatch)
    with pytest.raises(ValueError, match=f"the {suite} suite starts at n = "):
        verify.run_suites([suite], 3, n_max)


@pytest.mark.parametrize("suite", _K3_SUITES)
def test_run_suites_refuses_another_k(monkeypatch, suite):
    _no_suite_runs(monkeypatch)
    with pytest.raises(ValueError, match=f"the {suite} suite checks k = 3 only, not k = 4"):
        verify.run_suites([suite], 4, 5)


@pytest.mark.parametrize("k,n_max,message", [
    (4, 1, "the rho3 suite checks k = 3 only, not k = 4"),
    # the suites that start last are named: n_max = 2 admits every suite
    (3, 0, "the duality and restriction suites start at n = 2, got n_max = 0"),
])
def test_run_suites_refuses_all_suites_before_the_first_runs(monkeypatch, k, n_max, message):
    _no_suite_runs(monkeypatch)
    with pytest.raises(ValueError) as refused:
        verify.run_suites(verify.SUITE_NAMES, k, n_max)
    assert str(refused.value) == message


@pytest.mark.parametrize("names", [["bogus"], ["tableau", "bogus"]])
def test_run_suites_refuses_an_unknown_suite_before_any_runs(monkeypatch, names):
    _no_suite_runs(monkeypatch)
    monkeypatch.setattr(verify.enumeration, "require_brute_budget", _unreachable)
    with pytest.raises(ValueError) as refused:
        verify.run_suites(names, 3, 5)
    available = ", ".join(verify.SUITE_NAMES)
    assert str(refused.value) == f"unknown suite 'bogus'; available: {available}"


def test_run_suites_checks_an_iterator_of_names(monkeypatch):
    # the names are read more than once, so an iterator must not run out
    # before the k check
    _no_suite_runs(monkeypatch)
    with pytest.raises(ValueError, match="the rho3 suite checks k = 3 only, not k = 4"):
        verify.run_suites(iter(["rho3"]), 4, 5)


def test_run_suites_refuses_no_suite(monkeypatch):
    monkeypatch.setattr(verify.enumeration, "require_brute_budget", _unreachable)
    with pytest.raises(ValueError, match="^no suite named; available: duality, "):
        verify.run_suites([], 3, 5)


@pytest.mark.parametrize("argv,k", [
    ("enum --class partitions --k 1 --n 13", 1),
    ("enum --class braids --k 0 --n 12", 0),
    ("verify --suite duality --k 1 --n-max 13", 1),
    ("verify --suite tableau --k 0 --n-max 12", 0),
    ("verify --suite all --k 1 --n-max 13", 1),
])
def test_k_below_two_is_refused_before_the_budget(capsys, monkeypatch, argv, k):
    # as count refuses it: before any charge, and before any suite runs,
    # the tableau suite's n = 0 round trip too
    _no_suite_runs(monkeypatch)
    monkeypatch.setattr(enumeration, "require_brute_budget", _unreachable)
    monkeypatch.setattr(enumeration, "_growth_walk", _unreachable)
    assert cli.run(argv.split()) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err.splitlines()[-1]) == {
        "error": "ValueError", "message": f"k must be >= 2, got {k}"
    }


def test_verify_all_runs_the_suites_of_its_k(capsys):
    status, report = run_json(capsys, "verify", "--suite", "all", "--k", "4", "--n-max", "4")
    assert status == 0 and report["passed"] is True and report["k"] == 4
    assert [s["name"] for s in report["suites"]] == ["duality", "restriction", "routes", "tableau"]


class TestFormulaCaps:
    @pytest.mark.parametrize("route", ["kernel", "closed", "recurrence"])
    def test_route_over_its_cap_is_refused(self, capsys, monkeypatch, route):
        routes = verify._FORMULA_ROUTES["B_k_dagger", 3]
        cap = routes[route].cap
        monkeypatch.setitem(routes, route, routes[route]._replace(count=_unreachable))
        for argv in (
            f"count --class braids-noiso --n {cap + 1} --route {route}",
            f"rho3 --n-max {cap + 1} --route {route}",
        ):
            assert cli.run(argv.split()) == 1
            message = json.loads(capsys.readouterr().err.splitlines()[-1])
            assert message == {
                "error": "RangeGuardError",
                "message": f"route {route!r} is capped at n = {cap}, got {cap + 1}",
            }

    def test_walks_suite_over_its_cap_is_refused(self, capsys, monkeypatch):
        monkeypatch.setattr(walks, "_quadrant_walk_table", _unreachable)
        argv = ["verify", "--suite", "walks", "--n-max", str(verify._WALKS_CAP + 1)]
        assert cli.run(argv) == 1
        assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == "RangeGuardError"

    @pytest.mark.parametrize("suite,n_max,message", [
        ("walks", 300, "the walks suite is capped at n = 210, got 300"),
        ("rho3", 200, "route 'kernel' is capped at n = 120, got 200"),
    ])
    def test_a_suite_cap_is_refused_before_any_suite_runs(self, monkeypatch, suite, n_max,
                                                          message):
        # the series suite, named first, would run before the capped one
        monkeypatch.setattr(walks, "_online_root", _unreachable)
        monkeypatch.setattr(walks, "kernel_symmetry_holds", _unreachable)
        with pytest.raises(enumeration.RangeGuardError) as raised:
            verify.run_suites(["series", suite], 3, n_max)
        assert str(raised.value) == message

    def test_asympt_over_its_cap_is_refused(self, capsys, monkeypatch):
        monkeypatch.setattr(walks, "asymptotic_estimate", _unreachable)
        assert cli.run(["asympt", "--n", str(verify.ASYMPT_CAP + 1)]) == 1
        assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == "RangeGuardError"

    @pytest.mark.parametrize("argv", [
        "count --class braids-noiso --route kernel --n-max",
        "rho3 --route kernel --n-max",
        "rho3 --route closed --n-max",
        "rho3 --route recurrence --n-max",
        "rho3 --route all --n-max",
    ])
    def test_a_range_is_refused_without_listing_it(self, capsys, monkeypatch, argv):
        # 10**18 sizes do not fit in memory: the cap must be checked on
        # the range's ends, not on a list of its elements
        routes = verify._FORMULA_ROUTES["B_k_dagger", 3]
        for route in routes:
            monkeypatch.setitem(routes, route, routes[route]._replace(count=_unreachable))
        assert cli.run([*argv.split(), str(10**18)]) == 1
        message = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert message["error"] == "RangeGuardError"
        assert message["message"].endswith(f"got {10**18}")

    @pytest.mark.parametrize("route", ["kernel", "closed", "recurrence"])
    def test_route_below_n_1_is_refused(self, route):
        with pytest.raises(ValueError, match=f"route {route!r} counts from n = 1, got n = 0"):
            verify.count("B_k_dagger", 3, route, [0, 5])

    def test_recurrence_reaches_10000(self):
        [value] = verify.count("B_k_dagger", 3, "recurrence", [10_000]).values()
        assert value.bit_length() > 29_000

    def test_one_size_at_the_recurrence_cap_keeps_one_term(self):
        # the table over 1..20 000 peaks at about 82 MB of traced memory
        tracemalloc.start()
        try:
            [value] = verify.count("B_k_dagger", 3, "recurrence", [20_000]).values()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20
        assert value == walks.rho3_recurrence(20_000)[20_000]


class TestDiagramCap:
    @pytest.mark.parametrize(
        "argv", ["map --in", "map --inverse --in", "render --in"], ids=["map", "inverse", "render"]
    )
    def test_diagram_over_its_cap_is_refused(self, capsys, monkeypatch, argv):
        # refused before any diagram is built
        for name in ("ArcDiagram", "BraidDiagram", "PartitionDiagram"):
            monkeypatch.setattr(diagrams, name, _unreachable)
        cap = verify.DIAGRAM_CAP
        assert cli.run([*argv.split(), f"n={cap + 1}; arcs=(1,3)"]) == 1
        assert json.loads(capsys.readouterr().err.splitlines()[-1]) == {
            "error": "RangeGuardError",
            "message": f"a diagram is capped at n = {cap}, got {cap + 1}",
        }

    def test_diagram_at_its_cap_is_mapped(self, capsys):
        status, out = run_text(capsys, "map", "--in", f"n={verify.DIAGRAM_CAP}; arcs=(1,3)")
        assert status == 0
        assert out.strip() == f"n={verify.DIAGRAM_CAP - 1}; arcs=(1,2)"


class TestDecimalTables:
    """The recurrence tables are printed from decimal radix (count_text)."""

    TABLE = {n: str(v) for n, v in walks.rho3_recurrence(1000).items()}

    def test_rho3_json_and_csv(self, capsys):
        argv = ["rho3", "--route", "recurrence", "--n-max", "1000"]
        status, report = run_json(capsys, *argv)
        assert status == 0
        assert report["counts"] == {str(n): v for n, v in self.TABLE.items()}
        status, out = run_text(capsys, *argv, "--format", "csv")
        assert status == 0
        assert out.splitlines() == ["route,n,value"] + [
            f"recurrence,{n},{v}" for n, v in self.TABLE.items()
        ]

    def test_count_json_and_csv(self, capsys):
        argv = ["count", "--class", "braids-noiso", "--n-max", "1000", "--route", "recurrence"]
        status, report = run_json(capsys, *argv)
        assert status == 0
        assert report["counts"] == {str(n): v for n, v in self.TABLE.items()}
        status, out = run_text(capsys, *argv, "--format", "csv")
        assert status == 0
        assert out.splitlines() == ["class,k,route,n,count"] + [
            f"braids-noiso,3,recurrence,{n},{v}" for n, v in self.TABLE.items()
        ]

    def test_count_text_keeps_count_returning_ints(self):
        # the decimal route hands back its Decimal terms, the others strings
        texts = verify.count_text("B_k_dagger", 3, "recurrence", [10, 1000])
        values = verify.count("B_k_dagger", 3, "recurrence", [10, 1000])
        assert all(type(v) is int for v in values.values())
        assert all(type(v) is Decimal for v in texts.values())
        assert {n: str(v) for n, v in texts.items()} == {n: str(v) for n, v in values.items()} == {
            n: self.TABLE[n] for n in (10, 1000)
        }
        assert verify.count_text("B_k_dagger", 3, "closed", [10]) == {10: self.TABLE[10]}

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_a_table_is_written_from_one_copy(self, monkeypatch, fmt):
        # rho3 over 1..4000 is a report of 7.2 million characters.  Its
        # exact terms take about half as many bytes, and a copy of their
        # digits as text as many again: a report built whole, then
        # printed, peaks at about three times its length
        sink = _CountingSink()
        monkeypatch.setattr(sys, "stdout", sink)
        argv = ["rho3", "--route", "recurrence", "--n-max", "4000", "--format", fmt]
        tracemalloc.start()
        try:
            status = cli.run(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert status == 0 and sink.length > 7_000_000
        assert peak < 0.75 * sink.length

    def test_a_value_json_cannot_encode_is_not_hidden(self, monkeypatch):
        # the report's hook encodes a Decimal, and nothing else
        monkeypatch.setitem(cli._HANDLERS, "asympt", lambda ns: ({"exact": Fraction(1, 3)}, 0))
        with pytest.raises(TypeError, match="Fraction is not JSON serializable"):
            cli.run(["asympt", "--n", "5"])

    @pytest.mark.parametrize("value", [Fraction(1, 3), 0.5, 5])
    def test_a_table_row_json_cannot_encode_is_refused_by_the_guard(self, monkeypatch, value):
        # the row writer takes the digits count_text hands out, and nothing else
        monkeypatch.setattr(verify, "count_text", lambda *args: {1: "1", 2: value})
        with pytest.raises(TypeError, match=f"{type(value).__name__} is not JSON serializable"):
            cli.run(["rho3", "--route", "closed", "--n-max", "2"])

    @pytest.mark.parametrize("argv, value_type", [
        *[(f"rho3 --route {route} --n-max {n}", value_type)
          for route, value_type in (("closed", str), ("recurrence", Decimal))
          for n in (1, 9, 10, 11, 101)],
        ("count --class braids-noiso --k 3 --n-max 11 --route recurrence", Decimal),
        ("count --class braids-noiso --k 3 --n 101 --route closed", str),
        ("rho3 --n-max 11 --route all", None),
    ])
    def test_rows_are_the_encoders_bytes(self, capsys, monkeypatch, argv, value_type):
        # a "counts" table is written row by row, and reads as the
        # encoder's text of the same report keyed by str(n); the nested
        # tables of rho3 --route all go through the encoder
        reports = []
        chunks = cli._report_chunks

        def kept(report):
            reports.append(report)
            return chunks(report)

        monkeypatch.setattr(cli, "_report_chunks", kept)
        assert cli.run(argv.split()) == 0
        [report] = reports
        if value_type is None:
            assert "counts" not in report
        else:
            assert {type(v) for v in report["counts"].values()} == {value_type}
            report = {**report, "counts": {str(n): v for n, v in report["counts"].items()}}
        assert capsys.readouterr().out == cli._REPORT_ENCODER.encode(report) + "\n"

    @pytest.mark.parametrize("command", ["rho3", "count"])
    def test_exactness_guard_fires_through_the_decimal_path(self, capsys, monkeypatch, command):
        weights = walks.recurrence_weights

        def broken(n):
            *rest, lead = weights(n)
            return (*[1] * len(rest), lead)

        monkeypatch.setattr(walks, "recurrence_weights", broken)
        argv = {
            "rho3": "rho3 --route recurrence --n-max 10",
            "count": "count --class braids-noiso --n 10 --route recurrence",
        }[command]
        assert cli.run(argv.split()) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        diagnostic = json.loads(captured.err.splitlines()[-1])
        assert diagnostic["error"] == "RecurrenceError"
        assert diagnostic["message"].startswith("non-exact division at n=1: remainder ")

    def test_the_4300_digit_refusal_is_pinned(self, capsys):
        # str() of an int refuses more than sys.get_int_max_str_digits()
        # digits (4300 by default), and the decimal tables refuse the same
        # counts with the same diagnostic.  rho3(4785) has 4300 digits.
        # Pinned until the benchmark can hold the longer report.
        status, report = run_json(capsys, "rho3", "--route", "recurrence", "--n-max", "4785")
        assert status == 0 and len(report["counts"]["4785"]) == 4300
        with pytest.raises(ValueError) as caught:
            str(10**4300)
        for argv in (
            "rho3 --route recurrence --n-max 4786",
            "rho3 --route recurrence --n-max 4786 --format csv",
            "count --class braids-noiso --n 4786 --route recurrence",
        ):
            assert cli.run(argv.split()) == 1, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert json.loads(captured.err.splitlines()[-1]) == {
                "error": "ValueError",
                "message": str(caught.value),
            }

    @pytest.mark.parametrize("argv", [
        "rho3 --route recurrence --n-max 20000",
        "count --class braids-noiso --n 20000 --route recurrence",
    ])
    def test_a_table_stops_at_its_first_overlong_term(self, capsys, monkeypatch, argv):
        # rho3 increases, so the recurrence stops at rho3(4786), the first
        # term of more than 4300 digits, which step n = 4784 produces
        steps = []
        weights = walks.recurrence_weights

        def counted(n):
            steps.append(n)
            return weights(n)

        monkeypatch.setattr(walks, "recurrence_weights", counted)
        with pytest.raises(ValueError) as caught:
            str(10**4300)
        tracemalloc.start()
        try:
            status = cli.run(argv.split())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert status == 1 and max(steps) == 4784
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err.splitlines()[-1]) == {
            "error": "ValueError",
            "message": str(caught.value),
        }
        if argv.startswith("rho3"):  # the whole table took about 75 MB
            assert peak < 10_000_000

    @pytest.mark.parametrize("bound", [True, False])
    def test_one_pass_refuses_an_overlong_table(self, capsys, monkeypatch, bound):
        # the lower-bound pass proves the refusal and no exact term is
        # formed; without it, the exact pass refuses at the same step with
        # the same diagnostic.  Either way recurrence_weights runs once per
        # step, 1..4784, so one pass ran.
        steps = _count_steps(monkeypatch)
        if not bound:
            monkeypatch.setattr(walks, "_certainly_too_long", lambda top, max_digits: False)
        with pytest.raises(ValueError) as caught:
            str(10**4300)
        tracemalloc.start()
        try:
            status = cli.run("rho3 --route recurrence --n-max 20000".split())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert status == 1 and steps == list(range(1, 4785))
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err.splitlines()[-1]) == {
            "error": "ValueError",
            "message": str(caught.value),
        }
        if bound:  # the exact pass keeps every term it reaches, about 4 MB
            assert peak < 1_000_000

    def test_no_bound_pass_below_the_8_to_the_n_line(self, capsys, monkeypatch):
        # 8^4000 < 10^4300 and rho3(n) <= 8^n: no term can be too long, so
        # only the exact pass steps, n = 1..3998
        steps = _count_steps(monkeypatch)
        assert cli.run("rho3 --route recurrence --n-max 4000".split()) == 0
        assert len(capsys.readouterr().out) > 0
        assert steps == list(range(1, 3999))

    def test_the_refusal_follows_the_interpreter_limit(self, capsys):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(1000)
        try:
            with pytest.raises(ValueError) as caught:
                str(10**1000)
            ok = cli.run(["rho3", "--route", "recurrence", "--n-max", "1100"])
            refused = cli.run(["rho3", "--route", "recurrence", "--n-max", "1200"])
        finally:
            sys.set_int_max_str_digits(limit)
        assert (ok, refused) == (0, 1)
        err = capsys.readouterr().err
        assert json.loads(err.splitlines()[-1])["message"] == str(caught.value)


def _count_steps(monkeypatch) -> list[int]:
    """The n of every walks.recurrence_weights call from now on, in order."""
    steps = []
    weights = walks.recurrence_weights

    def counted(n):
        steps.append(n)
        return weights(n)

    monkeypatch.setattr(walks, "recurrence_weights", counted)
    return steps


class _CountingSink:
    """A stdout that keeps only the number of characters and of lines
    written to it."""

    length = 0
    lines = 0

    def write(self, text: str) -> int:
        self.length += len(text)
        self.lines += text.count("\n")
        return len(text)


class TestHarness:
    def test_usage_error_exit_1(self, capsys):
        assert cli.run(["count", "--class", "bogus"]) == 1
        err = capsys.readouterr().err
        assert json.loads(err.splitlines()[-1])["error"] == "usage-error"

    @pytest.mark.parametrize("argv", [
        "enum --class partitions --k 3 --n 8",  # 119 370 bytes
        "rho3 --route recurrence --n-max 3000 --format csv",  # 4.1 MB
    ], ids=["enum", "csv"])
    def test_a_reader_that_stops_early_leaves_the_status(self, argv):
        # the first line is read and the pipe closed, as `| head -1` does,
        # while more than a pipe's 64 KiB is still to be written
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
        proc = subprocess.Popen([sys.executable, "-m", "noncrossing", *argv.split()],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(), err) == (0, b"")
        assert first.endswith(b"\n") and first.count(b"\n") == 1

    def test_the_parser_is_built_once(self, capsys):
        cli.build_parser.cache_clear()
        assert cli.run(["map", "--in", "n=2; arcs=(1,2)"]) == 0
        assert cli.run(["map", "--inverse", "--in", "n=1; arcs=(1,1)"]) == 0
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert capsys.readouterr().out == "n=1; arcs=(1,1)\nn=2; arcs=(1,2)\n"

    def test_a_usage_error_leaves_the_parser_as_it_was(self, capsys):
        # the calls on one parser answer as each did on a parser of its own
        calls = [
            ["map", "--in"],
            ["map", "--in", "n=2; arcs=(1,2)"],
            ["count", "--class", "bogus"],
            ["map", "--inverse", "--in", "n=1; arcs=(1,1)"],
            ["enum", "--class", "partitions", "--n", "2", "--k", "x"],
            ["enum", "--class", "partitions", "--n", "2"],
        ]

        def outcomes(fresh):
            seen = []
            for argv in calls:
                if fresh:
                    cli.build_parser.cache_clear()
                status = cli.run(argv)
                captured = capsys.readouterr()
                seen.append((status, captured.out, captured.err))
            return seen

        alone = outcomes(fresh=True)
        assert outcomes(fresh=False) == alone
        assert [status for status, _, _ in alone] == [1, 0, 1, 0, 1, 0]
        for status, out, err in alone:
            assert (out == "") == (status == 1)
            assert status == 0 or json.loads(err)["error"] == "usage-error"

    def test_missing_command_exit_1(self, capsys):
        assert cli.run([]) == 1

    def test_deterministic_reports(self, capsys):
        _, first = run_json(capsys, "count", "--class", "braids", "--k", "4", "--n", "4")
        _, second = run_json(capsys, "count", "--class", "braids", "--k", "4", "--n", "4")
        first.pop("elapsed_seconds")
        second.pop("elapsed_seconds")
        assert first == second


@pytest.mark.parametrize("command", sorted(_REPORTS))
def test_report_is_pinned(capsys, command):
    # stdout byte for byte, apart from the elapsed-time line of JSON
    # reports; a command is written as a shell would split it
    assert cli.run(shlex.split(command)) == 0
    out = capsys.readouterr().out.splitlines(keepends=True)
    kept = [line for line in out if not line.lstrip().startswith('"elapsed_seconds"')]
    assert "".join(kept) == _REPORTS[command]
