import json

import pytest

import smallgraphs
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


def test_er_check_cancel_command(capsys):
    code, out, _ = run_cli(capsys, "er-check-cancel", "--nmax", "6")
    assert code == 0
    results = report_of(out)["results"]
    assert results["all_hold"] is True
    assert results["cases"] > 0


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


def test_recon_filter_command(capsys):
    code, out, _ = run_cli(capsys, "recon-filter", "--graph", emit_graph6(smallgraphs.path(4)))
    assert code == 0
    results = report_of(out)["results"]
    assert results["unique"] is True
    assert results["matches_input"] is True
    assert all("origin_vertices" in entry for entry in results["deck"])


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


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--n", "3", "--threads", "0"],
        ["sweep", "--n", "3", "--samples", "-1"],
        ["er-check-cancel", "--nmax", "0"],
        ["er-check-cancel", "--nmax", "-1"],
    ],
)
def test_out_of_range_counts_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert not out
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
