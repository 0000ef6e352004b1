import concurrent.futures
import json
import time

import pytest

import smallgraphs
from autorbit import canon
from autorbit.cli import load_graph, main, parse_edges_arg
from autorbit.errors import AutorbitError
from autorbit.graphs import emit_edge_list, emit_graph6


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_of(out):
    payload = json.loads(out)
    assert set(payload) == {"command", "inputs", "results", "timing_ms"}
    return payload


def test_load_graph_from_literal_and_files(tmp_path, twin_hubs):
    g6 = emit_graph6(twin_hubs)
    assert load_graph(g6) == twin_hubs
    g6_file = tmp_path / "g.g6"
    g6_file.write_text(g6 + "\n")
    assert load_graph(str(g6_file)) == twin_hubs
    el_file = tmp_path / "g.edges"
    el_file.write_text(emit_edge_list(twin_hubs))
    assert load_graph(str(el_file)) == twin_hubs
    with pytest.raises(AutorbitError):
        load_graph("   ")


def test_parse_edges_arg_with_labels():
    labels = list("abcdefg")
    assert parse_edges_arg("a-e,e-f", labels) == frozenset({(0, 4), (4, 5)})
    assert parse_edges_arg("0-4") == frozenset({(0, 4)})
    with pytest.raises(AutorbitError):
        parse_edges_arg("a+e", labels)
    with pytest.raises(AutorbitError):
        parse_edges_arg("x-y")


def test_aut_command_on_k4(capsys):
    code, out, _ = run_cli(capsys, "aut", "--graph", emit_graph6(smallgraphs.complete(4)))
    assert code == 0
    payload = report_of(out)
    assert payload["results"]["order"] == "24"
    assert payload["results"]["generators"]


def test_verify_command_with_label_map(capsys, tmp_path, twin_hubs):
    path = tmp_path / "twin.g6"
    path.write_text(emit_graph6(twin_hubs))
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--graph",
        str(path),
        "--edges",
        "a-e,e-f",
        "--labels",
        "a,b,c,d,e,f,g",
    )
    assert code == 0
    results = report_of(out)["results"]
    assert results["holds"] is True
    assert (results["aut_g"], results["ao_g"]) == (8, 4)
    assert (results["aut_minus"], results["ao_minus"]) == (12, 6)
    assert results["ratio"] == {"numerator": "2", "denominator": "1"}


def test_verify_rejects_bad_input(capsys, twin_hubs):
    code, out, err = run_cli(
        capsys, "verify", "--graph", emit_graph6(twin_hubs), "--edges", "0-1"
    )
    assert code == 2
    assert not out
    assert "error" in err


def test_orbit_command_golden_set(capsys, twin_hubs):
    code, out, _ = run_cli(
        capsys, "orbit", "--graph", emit_graph6(twin_hubs), "--edges", "0-4,4-5"
    )
    assert code == 0
    results = report_of(out)["results"]
    assert results["size"] == 4
    assert [[0, 4], [4, 5]] in results["elements"]
    assert [[0, 4], [5, 6]] not in results["elements"]


def test_orbit_command_vertex(capsys, twin_hubs):
    code, out, _ = run_cli(capsys, "orbit", "--graph", emit_graph6(twin_hubs), "--vertex", "0")
    assert code == 0
    assert report_of(out)["results"]["elements"] == [0, 1, 2, 3]


def test_sweep_command_and_csv(capsys, tmp_path):
    csv_path = tmp_path / "rows.csv"
    code, out, _ = run_cli(
        capsys, "sweep", "--n", "3", "--subsets", "all", "--csv", str(csv_path)
    )
    assert code == 0
    results = report_of(out)["results"]
    assert results["holds"] is True
    assert results["graphs"] == 8
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("mask,")
    assert len(lines) == results["checks"] + 1


def test_sweep_random_needs_seed(capsys):
    code, _, err = run_cli(capsys, "sweep", "--n", "3", "--subsets", "random")
    assert code == 2
    assert "seed" in err


def test_sweep_combined_policies(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--n", "3", "--subsets", "single,random", "--samples", "3", "--seed", "5"
    )
    assert code == 0
    assert report_of(out)["results"]["violations"] == []


def test_er_prob_command(capsys):
    code, out, _ = run_cli(capsys, "er-prob", "--graph", emit_graph6(smallgraphs.wedge()))
    assert code == 0
    results = report_of(out)["results"]
    assert results["probability"] == {"numerator": "1", "denominator": "1"}
    assert results["labeled_copies"] == "3"


def test_er_sample_command_deterministic(capsys):
    code, first, _ = run_cli(capsys, "er-sample", "--n", "5", "--m", "4", "--seed", "9")
    assert code == 0
    code, second, _ = run_cli(capsys, "er-sample", "--n", "5", "--m", "4", "--seed", "9")
    assert code == 0
    assert report_of(first)["results"] == report_of(second)["results"]


def test_er_sample_estimate_mode(capsys):
    code, out, _ = run_cli(
        capsys,
        "er-sample",
        "--trials",
        "400",
        "--seed",
        "3",
        "--graph",
        emit_graph6(smallgraphs.wedge()),
    )
    assert code == 0
    results = report_of(out)["results"]
    assert results["estimate"] == 1.0
    assert results["within_6_sigma"] is True


def test_er_sample_usage_error(capsys):
    code, _, err = run_cli(capsys, "er-sample", "--seed", "1")
    assert code == 2
    assert "er-sample" in err


@pytest.mark.parametrize(
    "argv, line",
    [
        ([], "er-sample needs --n and --m (or --trials with --graph)"),
        (["--n", "5"], "er-sample needs --n and --m (or --trials with --graph)"),
        (["--m", "4", "--graph", "Cs"], "er-sample needs --n and --m (or --trials with --graph)"),
        (["--n", "5", "--m", "4", "--graph", "Cs"], "--graph is the estimate mode's target and needs --trials"),
        (["--trials", "3", "--n", "5"], "estimate mode needs --graph as the target and takes no --n or --m"),
    ],
)
def test_er_sample_mode_errors_keep_their_lines(capsys, argv, line):
    code, out, err = run_cli(capsys, "er-sample", "--seed", "1", *argv)
    assert (code, out, err) == (2, "", f"error: {line}\n")


def test_er_sample_has_no_labels_flag(capsys):
    code, out, err = run_cli(capsys, "er-sample", "--n", "5", "--m", "4", "--seed", "9", "--labels", "a")
    assert code == 2
    assert not out
    assert "--labels" in err


@pytest.mark.parametrize("command", ["aut", "er-prob", "deck", "recover-aut", "recon-filter"])
def test_labels_flag_only_where_vertex_tokens_are_read(capsys, command):
    code, out, err = run_cli(capsys, command, "--graph", "Bw", "--labels", "a")
    assert code == 2
    assert not out
    assert "--labels" in err


@pytest.mark.parametrize("labels", ["a,a,b", "a,,b", ""])
@pytest.mark.parametrize("command, flags", [
    ("orbit", ["--vertex", "1"]),
    ("verify", ["--edges", "a-b"]),
    ("proof-chain", ["--edges", "a-b"]),
])
def test_labels_must_be_distinct_and_non_empty(capsys, command, flags, labels):
    code, out, err = run_cli(capsys, command, "--graph", "Bw", *flags, "--labels", labels)
    assert code == 2
    assert not out
    assert err.startswith("error: ") and err.count("\n") == 1 and "--labels" in err


def test_er_check_cancel_command(capsys):
    code, out, _ = run_cli(capsys, "er-check-cancel", "--nmax", "6")
    assert code == 0
    results = report_of(out)["results"]
    assert results["all_hold"] is True
    assert results["cases"] > 0


def test_er_check_cancel_cap_fails_before_the_loop(capsys, monkeypatch):
    from autorbit import cli

    def no_check(n, m, k):
        raise AssertionError("the loop ran before --nmax was checked")

    monkeypatch.setattr(cli, "verify_binomial_cancellation", no_check)
    code, out, err = run_cli(capsys, "er-check-cancel", "--nmax", str(cli.ER_CHECK_NMAX + 1))
    assert code == 2
    assert not out
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_proof_chain_command(capsys):
    code, out, _ = run_cli(
        capsys, "proof-chain", "--graph", emit_graph6(smallgraphs.triangle()), "--edges", "0-1"
    )
    assert code == 0
    results = report_of(out)["results"]
    assert results["all_hold"] is True
    assert len(results["checks"]) == 3
    assert all(chk["holds"] for chk in results["checks"])


def test_deck_command(capsys):
    code, out, _ = run_cli(capsys, "deck", "--graph", emit_graph6(smallgraphs.triangle()))
    assert code == 0
    results = report_of(out)["results"]
    assert results["cards"] == 3
    assert results["classes"][0]["multiplicity"] == 3


def test_recover_aut_command(capsys, twin_hubs):
    code, out, _ = run_cli(capsys, "recover-aut", "--graph", emit_graph6(twin_hubs))
    assert code == 0
    results = report_of(out)["results"]
    assert results["true_order"] == "8"
    assert all(entry["match"] for entry in results["cards"])
    assert all(entry["recovered"] == "8" for entry in results["cards"])


@pytest.mark.parametrize("g6", ["A_", "B?", "C?", "C`", "DE?"])  # K2, E3, E4, 2K2, P3 + 2K1
def test_recover_aut_rejects_shared_incident_sets_before_searching(capsys, monkeypatch, g6):
    from autorbit import canon

    def no_search(*args):
        raise AssertionError("a graph or card was searched")

    monkeypatch.setattr(canon, "_search", no_search)
    code, out, err = run_cli(capsys, "recover-aut", "--graph", g6)
    assert code == 2
    assert not out
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("g6", ["G?qbSg", "GCvV@o"])
def test_recover_aut_rejects_pseudo_similar_vertices(capsys, g6):
    # each has two vertices in different orbits with isomorphic cards, so a card's
    # multiplicity exceeds its vertex's orbit size and recovery would report 2, not 1
    code, out, err = run_cli(capsys, "recover-aut", "--graph", g6)
    assert code == 2
    assert not out
    assert err.startswith("error: pseudo-similar vertices") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("g6, order", [("Cw", "6"), ("EwCW", "72")])  # K3 + K1, 2K3
def test_recover_aut_matches_with_one_isolated_vertex_or_triangles(capsys, g6, order):
    code, out, _ = run_cli(capsys, "recover-aut", "--graph", g6)
    assert code == 0
    results = report_of(out)["results"]
    assert results["true_order"] == order
    assert all(entry["match"] and entry["recovered"] == order for entry in results["cards"])


def test_recon_filter_command(capsys):
    code, out, _ = run_cli(capsys, "recon-filter", "--graph", emit_graph6(smallgraphs.path(4)))
    assert code == 0
    results = report_of(out)["results"]
    assert results["unique"] is True
    assert results["matches_input"] is True
    assert all("origin_vertices" in entry for entry in results["deck"])


def test_recon_filter_certifies_no_wrong_graph_for_eqjo(capsys):
    code, out, _ = run_cli(capsys, "recon-filter", "--graph", "EQjO")
    assert code == 0
    results = report_of(out)["results"]
    assert results["unique"] is True and results["matches_input"] is True
    code, out, err = run_cli(capsys, "recon-filter", "--graph", "EQjO", "--origins", "all")
    assert code == 2 and not out and "--origins" in err


def test_recon_filter_blind_mode(capsys):
    code, out, _ = run_cli(
        capsys, "recon-filter", "--graph", emit_graph6(smallgraphs.path(4)), "--blind"
    )
    assert code == 0
    results = report_of(out)["results"]
    assert results["unique"] is True
    assert all("origin_vertices" not in entry for entry in results["deck"])


def test_graph6_flag_alias(capsys):
    code, out, _ = run_cli(capsys, "aut", "--graph6", emit_graph6(smallgraphs.complete(4)))
    assert code == 0
    assert report_of(out)["results"]["order"] == "24"


def test_reports_are_deterministic_modulo_timing(capsys):
    _, first, _ = run_cli(capsys, "sweep", "--n", "3", "--subsets", "single,random", "--samples", "4", "--seed", "12")
    _, second, _ = run_cli(capsys, "sweep", "--n", "3", "--subsets", "single,random", "--samples", "4", "--seed", "12")
    a, b = json.loads(first), json.loads(second)
    a.pop("timing_ms"), b.pop("timing_ms")
    assert a == b


def test_orbit_pair_must_name_one_pair(capsys, twin_hubs):
    g6 = emit_graph6(twin_hubs)
    code, out, err = run_cli(capsys, "orbit", "--graph", g6, "--pair", "0-4,4-5")
    assert code == 2
    assert not out
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    code, out, _ = run_cli(capsys, "orbit", "--graph", g6, "--pair", "0-4,4-0")
    assert code == 0
    assert report_of(out)["results"]["size"] == 4


def test_long_graph6_literal_is_not_taken_for_a_file_name(capsys):
    g6 = emit_graph6(smallgraphs.cycle(60))
    assert len(g6) > 255  # longer than a file name may be
    code, out, _ = run_cli(capsys, "aut", "--graph", g6)
    assert code == 0
    assert report_of(out)["results"]["order"] == "120"


def test_usage_errors_exit_2(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    assert main(["verify", "--graph", "Bw"]) == 2  # missing --edges
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_non_integer_edge_list_token_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.el"
    path.write_text("3 2\n0 1\n1 x\n")
    code, out, err = run_cli(capsys, "aut", "--graph", str(path))
    assert code == 2
    assert not out
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_er_sample_gate_uses_the_exact_probability(capsys, monkeypatch):
    from autorbit import cli
    from autorbit.ermodel import SampleEstimate

    def no_hits(graph, trials, seed):
        return SampleEstimate(trials=trials, hits=0, estimate=0.0, ci95_halfwidth=0.0)

    monkeypatch.setattr(cli, "estimate_prob_isomorphic", no_hits)
    target = emit_graph6(smallgraphs.triangle_plus_isolated())  # p = 4 / C(6, 3) = 1/5
    code, out, _ = run_cli(capsys, "er-sample", "--trials", "1000", "--seed", "1", "--graph", target)
    assert code == 1
    results = report_of(out)["results"]
    assert results["exact"] == {"numerator": "1", "denominator": "5"}
    assert results["within_6_sigma"] is False


def test_er_sample_hits_the_search_cap_before_any_trial(capsys, monkeypatch, tmp_path):
    from autorbit import cli

    calls = []
    monkeypatch.setattr(cli, "estimate_prob_isomorphic", lambda *args: calls.append(args))
    path = tmp_path / "star.el"
    path.write_text("2000 5\n" + "".join(f"0 {v}\n" for v in range(1, 6)))  # a 5-edge star on 2,000 vertices
    code, out, err = run_cli(capsys, "er-sample", "--trials", "200000", "--seed", "1", "--graph", str(path))
    assert code == 2
    assert not out
    assert err.startswith("error: search depth exceeds the cap") and len(err.splitlines()) == 1
    assert not calls


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["--trials", "5", "--graph", "Bw", "--n", "4", "--m", "1"], "--n or --m"),
        (["--n", "3", "--m", "2", "--graph", "Bw"], "--graph"),
    ],
)
def test_er_sample_rejects_flags_of_the_other_mode(capsys, argv, flags):
    code, out, err = run_cli(capsys, "er-sample", "--seed", "1", *argv)
    assert code == 2
    assert not out
    assert err.startswith("error:") and flags in err and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--n", "3", "--threads", "0"],
        ["sweep", "--n", "3", "--samples", "-1"],
        ["er-check-cancel", "--nmax", "0"],
        ["er-check-cancel", "--nmax", "-1"],
        ["er-check-cancel", "--nmax", "100000"],
        ["sweep", "--n", "3", "--subsets", "foo"],
        ["sweep", "--n", "-1"],
        ["recover-aut", "--graph", "C~", "--vertex", "9"],
        ["recover-aut", "--graph", "C~", "--vertex", "-1"],
    ],
)
def test_out_of_range_counts_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert not out
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_sweep_threads_over_cap_exit_2_before_any_pool(capsys, monkeypatch):
    from autorbit import ratio

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    code, out, err = run_cli(capsys, "sweep", "--n", "3", "--threads", str(ratio.THREADS_CAP + 1))
    assert code == 2
    assert not out
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_non_utf8_graph_file_exits_2(capsys, tmp_path):
    path = tmp_path / "binary.g6"
    path.write_bytes(b"\xff\xfe\x00\x01")
    code, out, err = run_cli(capsys, "aut", "--graph", str(path))
    assert code == 2
    assert not out
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_unwritable_csv_path_exits_2_before_the_sweep(capsys, tmp_path, monkeypatch):
    from autorbit import cli

    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran before the --csv path was checked")

    monkeypatch.setattr(cli, "sweep_verify", no_sweep)
    csv_path = tmp_path / "no" / "such" / "dir" / "x.csv"
    code, out, err = run_cli(capsys, "sweep", "--n", "3", "--csv", str(csv_path))
    assert code == 2
    assert not out
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_random_sweep_without_seed_names_the_flag(capsys):
    code, out, err = run_cli(capsys, "sweep", "--n", "3", "--subsets", "random")
    assert (code, out) == (2, "")
    assert err == "error: random subset policy requires an explicit seed (--seed)\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["--n", "7"],
        ["--n", "3", "--threads", "65"],
        ["--n", "6", "--subsets", "all"],
    ],
)
def test_failing_sweep_leaves_an_existing_csv_untouched(capsys, tmp_path, argv):
    csv_path = tmp_path / "keep.csv"
    csv_path.write_bytes(b"keep\n")
    code, out, err = run_cli(capsys, "sweep", *argv, "--csv", str(csv_path))
    assert code == 2
    assert not out
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert csv_path.read_bytes() == b"keep\n"


def test_deep_search_exits_2(capsys, tmp_path):
    path = tmp_path / "edgeless.el"
    path.write_text("1100 0\n")
    code, out, err = run_cli(capsys, "aut", "--graph", str(path))
    assert code == 2
    assert not out
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [["aut", "--graph", "99999 0"], ["er-sample", "--n", "100000", "--m", "1", "--seed", "1"]],
)
def test_vertex_cap_fails_before_the_work(capsys, monkeypatch, argv):
    def no_search(*args):
        raise AssertionError("searched past the vertex cap")

    monkeypatch.setattr(canon, "_search", no_search)
    started = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - started < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "vertex cap" in err and len(err.strip().splitlines()) == 1


def test_parser_is_built_once():
    from autorbit.cli import build_parser

    assert build_parser() is build_parser()
