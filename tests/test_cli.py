import hashlib
import json
import tracemalloc

import pytest

from hopfgal import __version__, cli, corpus
from hopfgal.cli import main
from hopfgal.corpus import named_group, quaternion8
from hopfgal.groups import surjections_up_to_precomposition


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, ["--json"] + argv)
    return code, json.loads(out), err


def group_json(G):
    return {"order": G.order, "table": [list(row) for row in G.table]}


@pytest.fixture(scope="module")
def hom_file(tmp_path_factory):
    Q8 = quaternion8()
    V4 = named_group("V4")
    f = surjections_up_to_precomposition(Q8, V4)[0]
    path = tmp_path_factory.mktemp("hom") / "q8_to_v4.json"
    path.write_text(json.dumps({
        "domain": group_json(Q8),
        "codomain": group_json(V4),
        "mapping": list(f.mapping),
    }))
    return str(path)


@pytest.fixture()
def pres_file(tmp_path):
    path = tmp_path / "v4.pres"
    path.write_text("gens: x y\nrels: x^2, y^2, [x,y]\nclass: 1\n")
    return str(path)


class TestHomologyCommand:
    def test_both_engines_agree_on_klein_group(self, capsys):
        code, blob, _ = run_json(
            capsys, ["homology", "--named", "V4", "--degree", "2",
                     "--method", "both"])
        assert code == 0
        assert blob["results"]["hopf"] == {"free_rank": 0, "factors": [2]}
        assert blob["results"]["bar"] == {"free_rank": 0, "factors": [2]}
        assert blob["flags"]["agreement"] is True
        assert blob["ok"] is True

    def test_cyclic_group_has_trivial_schur_multiplier(self, capsys):
        code, blob, _ = run_json(
            capsys, ["homology", "--named", "C6", "--degree", "2",
                     "--method", "bar"])
        assert code == 0
        assert blob["results"]["bar"] == {"free_rank": 0, "factors": []}

    def test_trivial_group(self, capsys):
        code, blob, _ = run_json(
            capsys, ["homology", "--named", "trivial", "--degree", "2"])
        assert code == 0
        assert blob["results"]["hopf"]["factors"] == []
        assert blob["results"]["bar"]["factors"] == []

    def test_presentation_file_input(self, capsys, pres_file):
        code, blob, _ = run_json(
            capsys, ["homology", "--presentation", pres_file,
                     "--degree", "2", "--method", "hopf"])
        assert code == 0
        assert blob["results"]["hopf"]["factors"] == [2]
        assert blob["flags"]["stabilization"] == "NONE"
        # input is echoed as a digest so reports stay self-contained
        assert len(blob["inputs"]["presentation"]) == 64

    def test_degree_one_is_abelianization(self, capsys, pres_file):
        code, blob, _ = run_json(
            capsys, ["homology", "--presentation", pres_file,
                     "--degree", "1", "--method", "hopf"])
        assert code == 0
        assert blob["results"]["hopf"]["factors"] == [2, 2]

    def test_primes_flag_quotients_torsion(self, capsys):
        code, blob, _ = run_json(
            capsys, ["homology", "--named", "V4", "--degree", "2",
                     "--primes", "2"])
        assert code == 0
        assert blob["results"]["hopf"]["factors"] == []
        assert blob["results"]["bar"]["factors"] == []
        assert blob["inputs"]["primes"] == [2]

    def test_group_json_input(self, capsys, tmp_path):
        path = tmp_path / "z3xz3.json"
        path.write_text(json.dumps(group_json(named_group("Z3xZ3"))))
        code, blob, _ = run_json(
            capsys, ["homology", "--group", str(path), "--method", "bar"])
        assert code == 0
        assert blob["results"]["bar"]["factors"] == [3]

    def test_plain_output_lists_results_and_ok(self, capsys):
        code, out, _ = run(
            capsys, ["homology", "--named", "V4", "--method", "both"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "ok: True"
        assert any(line.startswith("agreement: True") for line in lines)

    def test_disagreement_fails_the_run(self, capsys, pres_file):
        # presentation overrides the named group's own, so the two
        # engines are deliberately fed different inputs here
        code, blob, _ = run_json(
            capsys, ["homology", "--named", "Z4", "--presentation",
                     pres_file, "--method", "both"])
        assert code == 1
        assert blob["flags"]["agreement"] is False
        assert blob["ok"] is False

    def test_hopf_without_presentation_is_an_error(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(group_json(named_group("Z4"))))
        code, out, err = run(
            capsys, ["homology", "--group", str(path), "--method", "hopf"])
        assert code == 2
        assert out == ""
        assert "presentation" in err

    def test_bar_without_group_fails_before_any_engine_runs(
            self, capsys, pres_file, monkeypatch):
        def refuse(*args):
            raise AssertionError("ran the hopf engine")

        monkeypatch.setattr(cli, "hopf_pi_n", refuse)
        code, out, err = run(
            capsys, ["homology", "--presentation", pres_file,
                     "--degree", "3", "--method", "both"])
        assert code == 2 and out == ""
        assert err == ("error: the bar engine needs a finite group "
                       "(--named or --group)\n")

    def test_no_input_is_an_error(self, capsys):
        code, _, err = run(capsys, ["homology"])
        assert code == 2
        assert "need --named" in err

    def test_product_name_is_bounded_before_it_is_built(self, capsys,
                                                         monkeypatch):
        def refuse(n):
            raise AssertionError("built the cyclic group of order %d" % n)

        monkeypatch.setattr(corpus, "cyclic", refuse)
        code, out, err = run(capsys, ["homology", "--named", "Z2xZ2000",
                                      "--method", "bar"])
        assert code == 2 and out == ""
        assert err == "error: order 4000 of 'Z2xZ2000' exceeds the bound 32\n"

    def test_hopf_run_digests_the_group_file_without_building_it(
            self, capsys, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("built the group of the --group file")

        monkeypatch.setattr(cli, "group_from_json", refuse)
        obj = {"name": "Z2xZ2521"}
        path = tmp_path / "g.json"
        path.write_text(json.dumps(obj))
        code, blob, _ = run_json(
            capsys, ["homology", "--named", "V4", "--method", "hopf",
                     "--group", str(path)])
        assert code == 0
        assert blob["inputs"]["group"] == hashlib.sha256(
            json.dumps(obj, sort_keys=True).encode()).hexdigest()
        assert blob["results"]["hopf"] == {"free_rank": 0, "factors": [2]}

    def test_unknown_name_is_an_error(self, capsys):
        code, _, err = run(capsys, ["homology", "--named", "monster"])
        assert code == 2
        assert "error:" in err

    def test_missing_file_is_an_error(self, capsys):
        code, _, err = run(
            capsys, ["homology", "--presentation", "/nonexistent.pres"])
        assert code == 2
        assert "error:" in err

    def test_bad_primes_flag_is_an_error(self, capsys):
        code, _, err = run(
            capsys, ["homology", "--named", "V4", "--primes", "2,zebra"])
        assert code == 2
        assert "--primes" in err


class TestGaloisCommand:
    def test_normal_but_not_trivial_witness(self, capsys, hom_file):
        code, blob, _ = run_json(
            capsys, ["galois", "is-normal", "--hom", hom_file])
        assert code == 0 and blob["results"]["normal"] is True
        code, blob, _ = run_json(
            capsys, ["galois", "is-trivial", "--hom", hom_file])
        assert code == 0 and blob["results"]["trivial"] is False

    def test_galois_group_of_central_quotient(self, capsys, hom_file):
        code, blob, _ = run_json(
            capsys, ["galois", "group", "--hom", hom_file])
        assert code == 0
        assert blob["results"]["galois_group"] == {"free_rank": 0,
                                                   "factors": [2]}

    def test_centralize_reports_kernel_and_unit(self, capsys, hom_file):
        code, blob, _ = run_json(
            capsys, ["galois", "centralize", "--hom", hom_file])
        assert code == 0
        assert blob["results"]["centralized_domain_order"] == 8
        assert blob["results"]["centralized_kernel"]["factors"] == [2]
        assert blob["flags"]["unit_surjective"] is True

    def test_characterisation_sees_local_torsion(self, capsys, hom_file):
        # kernel is Z/2: normal in the plain structure, but not once the
        # 2-torsion-free reflector is composed in
        code, blob, _ = run_json(
            capsys, ["galois", "characterisation", "--hom", hom_file,
                     "--primes", "2"])
        assert code == 0 and blob["results"]["normal"] is False
        code, blob, _ = run_json(
            capsys, ["galois", "characterisation", "--hom", hom_file,
                     "--primes", "3"])
        assert code == 0 and blob["results"]["normal"] is True

    def test_hom_names_are_bounded_before_they_are_built(
            self, capsys, tmp_path, monkeypatch):
        def refuse(n):
            raise AssertionError("built the cyclic group of order %d" % n)

        monkeypatch.setattr(corpus, "cyclic", refuse)
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"domain": {"name": "Z2xZ2521"},
                                    "codomain": {"name": "Z2"},
                                    "mapping": [0, 1]}))
        code, out, err = run(capsys, ["galois", "is-normal",
                                      "--hom", str(path)])
        assert code == 2 and out == ""
        assert err == ("error: order 5042 of 'Z2xZ2521' exceeds the bound "
                       "5040\n")

    def test_hom_mapping_length_is_checked_before_the_domain_is_built(
            self, capsys, tmp_path):
        # building Z2xZ1000 first would take about 200 MB
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"domain": {"name": "Z2xZ1000"},
                                    "codomain": {"name": "Z2"},
                                    "mapping": [0, 0]}))
        tracemalloc.start()
        try:
            code, out, err = run(capsys, ["galois", "is-normal",
                                          "--hom", str(path)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert err == "error: mapping length mismatch\n"
        assert peak < 2 * 2 ** 20, peak

    def test_malformed_hom_file_is_an_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"domain": group_json(named_group("Z2"))}))
        code, _, err = run(capsys, ["galois", "is-normal",
                                    "--hom", str(path)])
        assert code == 2
        assert "hom file" in err


def _hom_text(mapping, domain="Z2"):
    return json.dumps({"domain": {"name": domain}, "codomain": {"name": "Z2"},
                       "mapping": mapping})


_SIGN = surjections_up_to_precomposition(named_group("S3"),
                                         named_group("Z2"))[0].mapping


@pytest.mark.parametrize("text", [
    "# Z2, whole-line comment\ngens: x\nrels: x^2\nclass: 1\n",
    "gens: x # the generator\nrels: x^2\nclass: 1\n",
    "gens: x\nrels: x^2 # relator\nclass: 1  # bound\n",
], ids=["whole-line", "after-gens", "after-rels-and-class"])
def test_presentation_comments_are_ignored(capsys, tmp_path, text):
    path = tmp_path / "z2.pres"
    path.write_text(text)
    code, blob, _ = run_json(
        capsys, ["homology", "--method", "hopf", "--degree", "2",
                 "--presentation", str(path)])
    assert code == 0
    assert blob["results"]["hopf"] == {"free_rank": 0, "factors": []}


MALFORMED = [
    pytest.param("homology", "--presentation",
                 b"gens: x\nrels: x^2\nclass: abc\n", id="class-not-integer"),
    pytest.param("homology", "--group", b'{"name": "Z',
                 id="truncated-group-json"),
    pytest.param("galois", "--hom", b'{"domain": {"name"',
                 id="truncated-hom-json"),
    pytest.param("homology", "--presentation",
                 b"gens: x\xff\nrels: x^2\nclass: 1\n",
                 id="presentation-not-utf8"),
    pytest.param("galois", "--hom", _hom_text([0, 5]).encode(),
                 id="mapping-leaves-codomain"),
    pytest.param("galois", "--hom", _hom_text("ab").encode(),
                 id="mapping-not-integers"),
    pytest.param("galois", "--hom", _hom_text([0, 1.0]).encode(),
                 id="mapping-entry-is-a-float"),
    pytest.param("galois", "--hom", _hom_text([0, True]).encode(),
                 id="mapping-entry-is-a-bool"),
    pytest.param("galois", "--hom", _hom_text("01").encode(),
                 id="mapping-is-a-digit-string"),
    pytest.param("homology", "--group", b'{"table": [["a"]]}',
                 id="table-entry-not-integer"),
    pytest.param("homology", "--group", b"5", id="group-not-an-object"),
    pytest.param("homology", "--group", b'{"table": 5}',
                 id="table-not-a-list"),
    pytest.param("homology", "--group", b'{"name": 3}',
                 id="name-not-a-string"),
    pytest.param("homology", "--group", b'{"generators": [[1, 0]]}',
                 id="generators-without-degree"),
    pytest.param("galois", "--hom", b"[]", id="hom-not-an-object"),
    pytest.param("homology", "--group", b'{"degree": -3, "generators": [[]]}',
                 id="permutation-degree-negative"),
    pytest.param("homology", "--group",
                 b'{"degree": 1000000000, "generators": []}',
                 id="permutation-degree-too-large"),
    pytest.param("homology", "--group", b'{"table": [[0]], "order": true}',
                 id="order-not-an-integer"),
    pytest.param("homology", "--presentation",
                 b"gens: x\nrels: x^2\nclass: 1\nclass: 2\n",
                 id="presentation-label-repeated"),
    pytest.param("homology", "--named", "Z2xZ2000",
                 id="named-product-above-the-bar-bound"),
    pytest.param("homology", "--group", b'{"name": "Z2xZ2000"}',
                 id="group-name-above-the-bar-bound"),
    pytest.param(["homology", "--method", "bar", "--degree", "3"], "--named",
                 "Z1xZ33", id="order-33-above-the-degree-3-bound"),
    pytest.param("homology", "--named", "Z3xZ11",
                 id="order-33-above-the-degree-2-bound"),
    pytest.param(["homology", "--method", "hopf"], "--group",
                 b'{"name": "Z2xZ2521"}', id="group-file-under-hopf"),
    pytest.param("galois", "--hom", json.dumps({
        "domain": {"name": "Z2xZ2521"}, "codomain": {"name": "Z2"},
        "mapping": [0, 1]}).encode(), id="hom-domain-above-max-order"),
    pytest.param("galois", "--hom", json.dumps({
        "domain": {"name": "Z2"}, "codomain": {"name": "Z2521xZ2"},
        "mapping": [0, 1]}).encode(), id="hom-codomain-above-max-order"),
    pytest.param("homology", "--presentation",
                 b"gens: x\nrels: " + b"(" * 400 + b"x" + b")" * 400
                 + b"^2\nclass: 1\n", id="parentheses-nested-too-deep"),
    pytest.param("homology", "--presentation",
                 b"gens: x\nrels: x^2, " + b"[x," * 3000 + b"x" + b"]" * 3000
                 + b"\nclass: 1\n", id="commutators-nested-too-deep"),
    pytest.param("homology", "--presentation",
                 b"gens: x\nrels: x^" + b"7" * 5000 + b"\nclass: 1\n",
                 id="exponent-with-too-many-digits"),
    pytest.param("homology", "--group", b"[" * 100000,
                 id="group-json-nested-too-deep"),
    pytest.param("homology", "--group",
                 b'{"order": ' + b"9" * 5000 + b', "table": [[0]]}',
                 id="group-json-integer-with-too-many-digits"),
    pytest.param("galois", "--hom", b"[" * 100000,
                 id="hom-json-nested-too-deep"),
    pytest.param("galois", "--hom",
                 b'{"mapping": [' + b"9" * 5000 + b"]}",
                 id="hom-json-integer-with-too-many-digits"),
    pytest.param("homology", "--presentation",
                 b"gens: x\nrels: " + b"x" * 12000 + b"?x\nclass: 1\n",
                 id="long-relator-quoted-in-a-window"),
    pytest.param(["galois", "is-trivial"], "--hom",
                 _hom_text([0, 0, 0, 0], "Z4").encode(),
                 id="is-trivial-on-a-map-that-is-not-onto"),
    pytest.param(["galois", "group"], "--hom",
                 _hom_text(list(_SIGN), "S3").encode(),
                 id="galois-group-of-an-extension-that-is-not-normal"),
    pytest.param(["galois", "centralize", "--primes", "2"], "--hom",
                 _hom_text([0, 1, 0, 1], "Z4").encode(),
                 id="centralize-with-primes"),
    pytest.param(["homology", "--method", "hopf",
                  "--primes", "2305843009213693951"], "--named", "Z4",
                 id="prime-above-the-trial-division-bound"),
    pytest.param("homology", "--presentation",
                 b"gens: x\nrels: x^2\nclass: 1000000000\n",
                 id="class-above-the-hall-basis-bound"),
]


@pytest.mark.parametrize("command,flag,content", MALFORMED)
def test_malformed_input_exits_two(capsys, tmp_path, command, flag, content):
    # bytes are written to a file and the flag names it; a string is the
    # flag's value itself
    value = content
    if isinstance(content, bytes):
        value = tmp_path / "input"
        value.write_bytes(content)
    # the engine that reads the input, so that only the bad input can
    # account for exit 2, unless the row gives its own arguments
    method = "hopf" if flag == "--presentation" else "bar"
    if isinstance(command, list):
        argv = command
    elif command == "homology":
        argv = [command, "--method", method]
    else:
        argv = [command, "is-normal"]
    code, out, err = run(capsys, argv + [flag, str(value)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    if flag == "--presentation":
        # a presentation error quotes a bounded part of the input, however
        # long, in one line of at most 200 characters (the JSON readers'
        # errors name the file, whose path the test does not choose)
        assert len(err) <= 201


class TestVerifyCommand:
    def test_none_suite_runs_nothing(self, capsys):
        code, blob, _ = run_json(capsys, ["verify", "--suite", "none"])
        assert code == 0
        assert blob["results"] == {}
        assert blob["ok"] is True

    def test_single_suite_with_seed(self, capsys):
        code, blob, _ = run_json(
            capsys, ["verify", "--suite", "matrices", "--seed", "7"])
        assert code == 0
        assert "matrices" in blob["results"]
        assert blob["inputs"]["seed"] == 7

    def test_suites_can_be_repeated(self, capsys):
        code, blob, _ = run_json(
            capsys, ["verify", "--suite", "matrices", "--suite", "closure",
                     "--max-order", "8"])
        assert code == 0
        assert set(blob["results"]) == {"matrices", "closure"}

    @pytest.mark.parametrize("suite,value", [("centrality", "0"),
                                             ("bar", "-3")])
    def test_max_order_must_be_positive(self, capsys, suite, value):
        code, out, err = run(capsys, ["verify", "--suite", suite,
                                      "--max-order", value])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--max-order" in err

    def test_unknown_suite_is_an_error(self, capsys):
        code, _, err = run(capsys, ["verify", "--suite", "astrology"])
        assert code == 2
        assert "astrology" in err


def test_one_parser_serves_every_call_without_carrying_values(capsys,
                                                             monkeypatch):
    # main reuses one parser; no value of one call may reach the next
    assert cli._build_parser() is cli._build_parser()
    monkeypatch.setattr(cli, "run_suite", lambda names, **kwargs: [])
    suites = []
    for argv in (["verify", "--suite", "matrices"], ["verify"]):
        code, blob, _ = run_json(capsys, argv)
        assert code == 0
        suites.append(blob["inputs"]["suites"])
    assert suites == [["matrices"], ["all"]]
    primes = []
    for extra in (["--primes", "2"], []):
        code, blob, _ = run_json(capsys, ["homology", "--named", "Z4",
                                          "--method", "bar"] + extra)
        assert code == 0
        primes.append(blob["inputs"]["primes"])
    assert primes == [[2], []]


class TestReportShape:
    def test_json_report_keys(self, capsys):
        code, blob, _ = run_json(capsys, ["verify", "--suite", "none"])
        assert code == 0
        assert set(blob) == {"command", "engine_version", "inputs",
                             "results", "timings", "flags", "ok"}
        assert blob["engine_version"] == __version__
        assert blob["command"] == ["--json", "verify", "--suite", "none"]

    def test_timings_are_recorded(self, capsys):
        code, blob, _ = run_json(
            capsys, ["homology", "--named", "Z3", "--method", "bar"])
        assert code == 0
        assert "bar" in blob["timings"]
        assert blob["timings"]["bar"] >= 0


class TestEnvironmentOverride:
    def test_max_order_cap_bounds_bar_runs(self, capsys, monkeypatch):
        monkeypatch.setenv("HOPFGAL_MAX_ORDER", "4")
        code, _, err = run(
            capsys, ["homology", "--named", "Z8", "--method", "bar"])
        assert code == 2
        assert "error:" in err

    def test_max_order_cap_allows_small_runs(self, capsys, monkeypatch):
        monkeypatch.setenv("HOPFGAL_MAX_ORDER", "4")
        code, blob, _ = run_json(
            capsys, ["homology", "--named", "Z4", "--method", "bar"])
        assert code == 0
        assert blob["results"]["bar"]["factors"] == []

    def test_long_normal_forms_give_a_value_or_one_error_line(
            self, capsys, monkeypatch):
        # the normal forms of Z2 x Z512 run to 512 letters: the bar flow
        # either ends or stops at its cell bound, and never in a traceback
        monkeypatch.setenv("HOPFGAL_MAX_ORDER", "1024")
        code, out, err = run(capsys, [
            "--json", "homology", "--method", "bar", "--degree", "3",
            "--named", "Z2xZ512"])
        if code == 0:
            assert json.loads(out)["results"]["bar"] == {
                "free_rank": 0, "factors": [2, 2, 512]}
        else:
            assert code == 2 and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_garbage_env_value_is_an_error(self, capsys, monkeypatch):
        monkeypatch.setenv("HOPFGAL_MAX_ORDER", "plenty")
        code, _, err = run(
            capsys, ["homology", "--named", "Z4", "--method", "bar"])
        assert code == 2
        assert "HOPFGAL_MAX_ORDER" in err

    def test_env_also_caps_the_verify_corpus(self, capsys, monkeypatch):
        monkeypatch.setenv("HOPFGAL_MAX_ORDER", "6")
        code, blob, _ = run_json(capsys, ["verify", "--suite", "centrality"])
        assert code == 0
        assert blob["inputs"]["max_order"] == 6


class TestArgumentParsing:
    def test_unknown_subcommand_exits_via_argparse(self, capsys):
        with pytest.raises(SystemExit):
            main(["conjecture"])

    def test_degree_is_restricted(self, capsys):
        with pytest.raises(SystemExit):
            main(["homology", "--named", "V4", "--degree", "4"])
