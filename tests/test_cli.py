"""CLI: every subcommand, exit codes, artifact determinism."""

import hashlib
import json
import sys

import pytest

from ranklab import cli
from ranklab.adversarial import verify_instance
from ranklab.cli import main
from ranklab.gabidulin import BALL_BUDGET, prior_counting_bound


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_explicit_then_verify(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    report = tmp_path / "report.json"
    code, out, _ = run(capsys, "gen-explicit", "--q", "2", "--g", "2",
                       "--s", "1", "--n", "4", "--m", "4",
                       "--out", str(inst))
    assert code == 0
    assert "5 codewords at radius 2" in out
    code, out, _ = run(capsys, "verify", "--in", str(inst),
                       "--out", str(report))
    assert code == 0
    assert "all passed" in out
    data = json.loads(report.read_text())
    assert data["all_passed"] is True
    assert len(data["checks"]) == 5


def test_gen_counting_then_verify(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    code, _, _ = run(capsys, "gen-counting", "--q", "2", "--n", "4",
                     "--m", "4", "--k", "1", "--g", "2", "--out", str(inst))
    assert code == 0
    data = json.loads(inst.read_text())
    assert data["kind"] == "counting"
    assert data["claimed_bound"] == 5
    code, _, _ = run(capsys, "verify", "--in", str(inst))
    assert code == 0


def test_verify_corrupted_instance_exits_1(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    run(capsys, "gen-explicit", "--q", "2", "--g", "2", "--s", "1",
        "--n", "4", "--m", "4", "--out", str(inst))
    data = json.loads(inst.read_text())
    data["codewords"][0][0] ^= 1
    inst.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", "--in", str(inst))
    assert code == 1
    assert "FAILED" in out


def test_bad_config_exits_2_with_json_error(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    code, _, err = run(capsys, "gen-explicit", "--q", "2", "--g", "2",
                       "--s", "1", "--n", "5", "--m", "5", "--out", str(inst))
    assert code == 2
    payload = json.loads(err.strip())
    assert payload["error"] == "DivisibilityViolation"
    code, _, err = run(capsys, "verify", "--in", str(tmp_path / "nope.json"))
    assert code == 2
    # parameters out of range are rejected before any arithmetic on them
    bounds = ["bounds", "--n", "4", "--m", "4", "--g", "2"]
    for argv, error in [
            (["gen-explicit", "--q", "2", "--g", "2", "--s", "0", "--n", "4",
              "--m", "4", "--out", str(inst)], "DivisibilityViolation"),
            (["gen-counting", "--q", "2", "--n", "0", "--m", "4", "--k", "0",
              "--g", "2", "--out", str(inst)], "BadDimension"),
            (bounds + ["--q", "1", "--k", "2"], "NotPrime"),
            (bounds + ["--q", "0", "--k", "2"], "NotPrime"),
            (bounds + ["--q", "4", "--k", "2"], "NotPrime"),
            (bounds + ["--q", "2", "--k", "9"], "BadDimension"),
            (bounds + ["--q", "2", "--k", "0"], "BadDimension"),
            (["bounds", "--q", "2", "--n", "4", "--m", "-4", "--k", "2",
              "--g", "2"], "BadDimension"),
            (["bounds", "--q", "2", "--n", "4", "--m", "6", "--k", "2",
              "--g", "2"], "NotASubfield"),
            (["bounds", "--q", "2", "--n", "4", "--m", "4", "--k", "2",
              "--g", "0"], "DivisibilityViolation"),
            (["bounds", "--q", "2", "--n", "4", "--m", "4", "--k", "2",
              "--g", "-2", "--s", "-1"], "DivisibilityViolation"),
            (bounds + ["--q", "2", "--k", "2", "--s", "0"],
             "DivisibilityViolation")]:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert json.loads(err.strip())["error"] == error, argv
    assert not inst.exists()


def test_bounds_prints_exact_values_of_any_length(capsys):
    # 2^(mn) bounds at n = m = 200 run past CPython's default limit of
    # 4,300 digits for str(int); the limit is lifted only while main runs
    limit = sys.get_int_max_str_digits()
    code, out, _ = run(capsys, "bounds", "--q", "2", "--n", "200",
                       "--m", "200", "--k", "2", "--g", "2")
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    prior = prior_counting_bound(2, 200, 200, 2, 100)
    assert prior.denominator > 10 ** 4300
    row = next(line.split() for line in out.splitlines()
               if line.split()[0] == "100")
    sys.set_int_max_str_digits(0)
    try:
        assert row[1] == f"{prior.numerator}/{prior.denominator}"
    finally:
        sys.set_int_max_str_digits(limit)


def test_rank_deficient_code_in_file_exits_2(tmp_path, capsys):
    # k > n would leave the message system without an information set;
    # loading the file rejects the dimension before that
    inst = tmp_path / "inst.json"
    run(capsys, "gen-explicit", "--q", "2", "--g", "2", "--s", "1",
        "--n", "4", "--m", "4", "--out", str(inst))
    data = json.loads(inst.read_text())
    data["code"]["k"] = 5
    inst.write_text(json.dumps(data))
    code, _, err = run(capsys, "verify", "--in", str(inst))
    assert code == 2
    assert json.loads(err.strip())["error"] == "BadDimension"


@pytest.mark.parametrize("command", ["verify", "lift-verify", "ball"])
@pytest.mark.parametrize("k", [0, 5])
def test_dimension_out_of_range_in_file_exits_2_at_load(tmp_path, capsys,
                                                        command, k):
    inst = tmp_path / "inst.json"
    run(capsys, "gen-explicit", "--q", "2", "--g", "2", "--s", "1",
        "--n", "4", "--m", "4", "--out", str(inst))
    data = json.loads(inst.read_text())
    data["code"]["k"] = k
    inst.write_text(json.dumps(data))
    code, out, err = run(capsys, command, "--in", str(inst))
    assert (code, out) == (2, "")
    assert json.loads(err.strip())["error"] == "BadDimension"


def test_missing_required_flag_exits_2(capsys):
    assert main(["gen-explicit", "--q", "2"]) == 2


def test_out_of_range_serial_in_file_exits_2(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    run(capsys, "gen-explicit", "--q", "2", "--g", "2", "--s", "1",
        "--n", "4", "--m", "4", "--out", str(inst))
    data = json.loads(inst.read_text())
    data["center"][0] = 99999
    inst.write_text(json.dumps(data))
    code, _, err = run(capsys, "verify", "--in", str(inst))
    assert code == 2
    assert json.loads(err.strip())["error"] == "ParamMismatch"


def test_ball_command(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    run(capsys, "gen-explicit", "--q", "2", "--g", "2", "--s", "1",
        "--n", "4", "--m", "4", "--out", str(inst))
    code, out, _ = run(capsys, "ball", "--in", str(inst))
    assert code == 0
    assert out.strip() == "5"
    listing = tmp_path / "ball.json"
    code, out, _ = run(capsys, "ball", "--in", str(inst), "--tau", "4",
                       "--out", str(listing))
    assert out.strip() == "16"
    data = json.loads(listing.read_text())
    assert data["count"] == 16


def test_bounds_table(tmp_path, capsys):
    out_json = tmp_path / "bounds.json"
    code, out, _ = run(capsys, "bounds", "--q", "2", "--n", "6", "--m", "6",
                       "--k", "3", "--g", "2", "--out", str(out_json))
    assert code == 0
    row = next(line for line in out.splitlines() if line.strip().
               startswith("2 "))
    assert "651/64" in row and "21" in row and "16" in row
    data = json.loads(out_json.read_text())
    assert data["rows"][0] == {
        "tau": 2, "prior": "651/64", "prior_vacuous": False,
        "counting": "21", "simplified": 16, "explicit": 21}


def test_lift_verify_command(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    run(capsys, "gen-explicit", "--q", "2", "--g", "2", "--s", "1",
        "--n", "4", "--m", "4", "--out", str(inst))
    code, out, _ = run(capsys, "lift-verify", "--in", str(inst))
    assert code == 0
    assert "all passed" in out


def test_compare_radius_command(capsys):
    code, out, _ = run(capsys, "compare-radius", "--i", "1", "--n", "1024")
    assert code == 0
    assert "tau < tau': True" in out
    code, _, _ = run(capsys, "compare-radius", "--i", "1", "--n", "1000")
    assert code == 2


def test_pretty_flag_adds_renderings(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    run(capsys, "gen-explicit", "--q", "2", "--g", "2", "--s", "1",
        "--n", "4", "--m", "4", "--pretty", "--out", str(inst))
    data = json.loads(inst.read_text())
    assert "center_pretty" in data and "pivot_pretty" in data


def test_main_calls_in_one_process_share_no_state(tmp_path, capsys,
                                                  monkeypatch):
    # the parser is built once per process, and each call still starts
    # from its own arguments and the parser's defaults
    assert cli._build_parser() is cli._build_parser()
    gen = ["gen-explicit", "--q", "2", "--g", "2", "--s", "1", "--n", "4",
           "--m", "4"]
    pretty, plain = tmp_path / "pretty.json", tmp_path / "plain.json"
    code, out, err = run(capsys, *gen)          # no --out: a parse error
    assert (code, out) == (2, "") and "--out" in err
    assert run(capsys, *gen, "--pretty", "--out", str(pretty))[0] == 0
    assert run(capsys, *gen, "--out", str(plain))[0] == 0
    assert "center_pretty" in json.loads(pretty.read_text())
    assert "center_pretty" not in json.loads(plain.read_text())

    budgets = []

    def recording(inst, ball_budget):
        budgets.append(ball_budget)
        return verify_instance(inst, ball_budget=ball_budget)

    monkeypatch.setattr(cli, "verify_instance", recording)
    code, out, _ = run(capsys, "verify", "--in", str(plain), "--budget", "1")
    assert code == 0
    assert "ball_oracle_containment: skipped" in out.splitlines()
    code, out, _ = run(capsys, "verify", "--in", str(plain))
    assert code == 0
    assert "ball_oracle_containment: pass" in out.splitlines()
    assert budgets == [1, BALL_BUDGET]


def test_option_a_subcommand_does_not_read_exits_2(tmp_path, capsys):
    inst, _ = _gen_gab41(tmp_path, capsys)
    for argv, unread in [
            (["bounds", "--q", "2", "--n", "6", "--m", "6", "--k", "3",
              "--g", "2"], ["--budget", "1"]),
            (["compare-radius", "--i", "1", "--n", "1024"], ["--seed", "1"]),
            (["verify", "--in", str(inst)], ["--pretty"])]:
        assert main(argv) == 0
        assert main(argv + unread) == 2


@pytest.mark.parametrize("argv", [
    ["lift-verify", "--tau-s", "-1"], ["lift-verify", "--tau-s", "-2"],
    ["ball", "--tau", "-1"]] + [
    [command, "--budget", budget] for command in ("verify", "lift-verify",
                                                  "ball")
    for budget in ("0", "-1")])
def test_negative_radius_or_budget_below_1_exits_2(tmp_path, capsys, argv):
    # a mistyped radius or budget is a bad parameter, not a verdict on the
    # file and not a switch that turns the oracle checks off
    inst, _ = _gen_gab41(tmp_path, capsys)
    out_file = tmp_path / "out.json"
    code, out, err = run(capsys, *argv, "--in", str(inst),
                         "--out", str(out_file))
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "BadParameters"
    assert not out_file.exists()


def test_radius_0_and_budget_1_stay_valid(tmp_path, capsys):
    inst, _ = _gen_gab41(tmp_path, capsys)
    assert run(capsys, "ball", "--in", str(inst), "--tau", "0")[:2] \
        == (0, "0\n")
    # no codeword lies at lifted distance 0 from the non-codeword center
    code, out, _ = run(capsys, "lift-verify", "--in", str(inst),
                       "--tau-s", "0")
    assert code == 1
    assert "lifted_distances_within_radius: fail" in out.splitlines()
    for command, check in (("verify", "ball_oracle_containment"),
                           ("lift-verify", "ball_relation_inequality")):
        code, out, _ = run(capsys, command, "--in", str(inst),
                           "--budget", "1")
        assert code == 0
        assert f"{check}: skipped" in out.splitlines()
    assert run(capsys, "ball", "--in", str(inst), "--budget", "16")[:2] \
        == (0, "5\n")


@pytest.mark.parametrize("command", ["verify", "lift-verify"])
def test_negative_radius_in_file_fails_without_error(tmp_path, capsys,
                                                     command):
    # the ball at tau = -1 is empty: no support walk reaches the depth d
    # where the syndrome columns turn dependent
    inst = tmp_path / "inst.json"
    assert main(["gen-explicit", "--q", "2", "--g", "2", "--s", "1",
                 "--n", "6", "--m", "6", "--out", str(inst)]) == 0
    data = json.loads(inst.read_text())
    data["tau"] = -1
    inst.write_text(json.dumps(data))
    capsys.readouterr()
    code, out, err = run(capsys, command, "--in", str(inst))
    assert (code, err) == (1, "")
    assert "FAILED" in out.splitlines()


def test_artifacts_are_byte_identical_across_runs(tmp_path, capsys):
    args = ["gen-counting", "--q", "2", "--n", "6", "--m", "6", "--k", "3",
            "--g", "2", "--seed", "7"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


# SHA-256 of the verify and lift-verify reports of explicit Gab[4,1]
# instances; a change to the checks or to the report format moves them
PINNED_REPORTS = {
    (2, 5): (
        "87cb2ef938e9713cc565c41ce3f109a9189e249f0d8bd1e9047c547a6040d49b",
        "9caa376ae7b00945b226509aaa17297d39f826e4ca45686942f896a7ebb23cb6"),
    (3, 17): (
        "5818d46b8340c6d7847bc9503682e4e354eced0d28543f64e83354705499ca69",
        "2fb3d0bfbdf70a35fc3479986431271f9ed32eea82035d62200447580a143c08"),
    (5, 101): (
        "320e26dacf1479faf86b2dfd5c11c026b8c8692cb785b7ea3108512205bbbe29",
        "13a619a109998de7e8ca2b5f21918fc0f19f4bb76249c067c9faee532422c8c3"),
}


@pytest.mark.parametrize("q, beta_exp", sorted(PINNED_REPORTS))
def test_reports_match_pinned_bytes(tmp_path, capsys, q, beta_exp):
    inst = tmp_path / "inst.json"
    assert main(["gen-explicit", "--q", str(q), "--g", "2", "--s", "1",
                 "--n", "4", "--m", "4", "--beta-exp", str(beta_exp),
                 "--seed", "1", "--out", str(inst)]) == 0
    digests = []
    for command in ("verify", "lift-verify"):
        report = tmp_path / f"{command}.json"
        assert main([command, "--in", str(inst), "--out", str(report)]) == 0
        digests.append(hashlib.sha256(report.read_bytes()).hexdigest())
    capsys.readouterr()
    assert tuple(digests) == PINNED_REPORTS[q, beta_exp]


# SHA-256 of counting instance files, g = 2: their codewords come in the
# order of the family's members, that of the RREF walk over GF(q^g), so a
# change to that walk moves them
PINNED_COUNTING = {
    (2, 6, 6, 3, 5):
        "c0e7fdb43cbab0e3a4828132db917aa611f902a4b852d06c255f615494a1af7d",
    (3, 4, 4, 2, 7):
        "d923b0ceda93b233ff9c39bb9eb4b5fa056541b74f2f8a6f725b4087d9accfaa",
}


@pytest.mark.parametrize("q, n, m, k, beta_exp", sorted(PINNED_COUNTING))
def test_counting_instances_match_pinned_bytes(tmp_path, capsys, q, n, m, k,
                                               beta_exp):
    inst = tmp_path / "inst.json"
    assert main(["gen-counting", "--q", str(q), "--n", str(n), "--m", str(m),
                 "--k", str(k), "--g", "2", "--beta-exp", str(beta_exp),
                 "--seed", "1", "--out", str(inst)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(inst.read_bytes()).hexdigest() \
        == PINNED_COUNTING[q, n, m, k, beta_exp]


def _gen_gab41(tmp_path, capsys):
    """Explicit Gab[4,1] over GF(2^4): 5 codewords at radius 2 (d = 4)."""
    inst = tmp_path / "inst.json"
    assert main(["gen-explicit", "--q", "2", "--g", "2", "--s", "1",
                 "--n", "4", "--m", "4", "--out", str(inst)]) == 0
    capsys.readouterr()
    return inst, json.loads(inst.read_text())


def _five_copies(data):
    data["codewords"] = [data["codewords"][0]] * 5


def _one_word_claiming_one(data):
    data["claimed_bound"] = 1
    data["codewords"] = data["codewords"][:1]


def _radius_at_length(data):
    # tau = n = d: five codewords at full rank distance, beyond any window
    from ranklab.adversarial import instance_from_dict
    from ranklab.gabidulin import codewords, rank_distance

    inst = instance_from_dict(data)
    far = [list(w.coords) for w in codewords(inst.code)
           if rank_distance(inst.center, w) == 4]
    data["tau"] = 4
    data["codewords"] = far[:5]


def _five_words_outside_radius(data):
    # tau = 2 kept, five distinct codewords at rank distance 3 or 4: a
    # wider --tau-s admits their distances, but not into the bound's count
    from ranklab.adversarial import instance_from_dict
    from ranklab.gabidulin import codewords, rank_distance

    inst = instance_from_dict(data)
    far = [list(w.coords) for w in codewords(inst.code)
           if rank_distance(inst.center, w) > 2]
    data["codewords"] = far[:5]


@pytest.mark.parametrize("budget", [[], ["--budget", "1"]])
@pytest.mark.parametrize("command, check", [
    ("verify", "list_meets_claimed_bound"),
    ("lift-verify", "lifted_explicit_bound"),
    ("lift-verify --tau-s 6", "lifted_explicit_bound")])
@pytest.mark.parametrize("forge", [_five_copies, _one_word_claiming_one,
                                   _radius_at_length])
def test_forged_list_fails_both_verifiers(tmp_path, capsys, forge, command,
                                          check, budget):
    inst, data = _gen_gab41(tmp_path, capsys)
    forge(data)
    inst.write_text(json.dumps(data))
    code, out, _ = run(capsys, *command.split(), "--in", str(inst), *budget)
    assert code == 1
    assert f"{check}: fail" in out.splitlines()


@pytest.mark.parametrize("command, check", [
    ("verify", "distances_exactly_tau"),
    ("lift-verify", "lifted_explicit_bound"),
    ("lift-verify --tau-s 8", "lifted_explicit_bound")])
def test_words_outside_the_radius_do_not_meet_the_bound(tmp_path, capsys,
                                                        command, check):
    inst, data = _gen_gab41(tmp_path, capsys)
    _five_words_outside_radius(data)
    inst.write_text(json.dumps(data))
    code, out, _ = run(capsys, *command.split(), "--in", str(inst))
    assert code == 1
    assert f"{check}: fail" in out.splitlines()


def _empty_pivot(data):
    data["pivot"] = []


def _no_members(data):
    data["family"]["members"] = []


def _empty_mutual_top(data):
    data["family"]["mutual_top"] = []


def _member_coefficient_changed(data):
    # below the mutual top, so that the family itself still loads
    data["family"]["members"][0][0] ^= 1


def _family_field(key, value):
    def forge(data):
        if key == "kind":
            data["family"]["kind"] = value
        else:
            data["family"]["params"][key] = value
    forge.__name__ = f"_family_{key}_{value}"
    return forge


# the family must be the one gen-explicit builds for the code and radius
FAMILY_FORGERIES = [_family_field("kind", "bogus")] + [
    _family_field(key, value)
    for key in ("q", "n", "s", "ell") for value in (-1, 99)]


@pytest.mark.parametrize("forge, check", [
    (_empty_pivot, "center_not_in_code"),
    (_no_members, "codewords_encode_low_degree"),
    (_empty_mutual_top, "codewords_encode_low_degree"),
    (_member_coefficient_changed, "codewords_encode_low_degree")] + [
    (forge, "list_meets_claimed_bound") for forge in FAMILY_FORGERIES])
def test_forged_family_fails_verify(tmp_path, capsys, forge, check):
    inst, data = _gen_gab41(tmp_path, capsys)
    forge(data)
    inst.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", "--in", str(inst))
    assert code == 1
    assert f"{check}: fail" in out.splitlines()


def _next_digit(v, q):
    """v with its lowest base-q digit stepped by one, mod q."""
    return v - v % q + (v % q + 1) % q


def _degree_k_coefficient_changed(data):
    # the coefficient at index k lies in the mutual top, so it changes
    # there and in every member alike, and the family still loads; the
    # pivot keeps the old one, so pivot - member has q-degree k
    q, k = data["code"]["q"], data["code"]["k"]
    fam = data["family"]
    r = len(fam["members"][0]) - 1
    new = _next_digit(fam["mutual_top"][r - k], q)
    fam["mutual_top"][r - k] = new
    for member in fam["members"]:
        member[k] = new


def _two_codewords_swapped(data):
    cws = data["codewords"]
    cws[0], cws[1] = cws[1], cws[0]


def _one_codeword_digit_flipped(data):
    data["codewords"][0][0] = _next_digit(data["codewords"][0][0],
                                          data["code"]["q"])


@pytest.mark.parametrize("gen", [
    ["gen-explicit", "--q", "2", "--g", "2", "--s", "1", "--n", "4",
     "--m", "4"],
    ["gen-explicit", "--q", "3", "--g", "2", "--s", "1", "--n", "4",
     "--m", "8"],
    ["gen-counting", "--q", "2", "--n", "6", "--m", "6", "--k", "3",
     "--g", "2"]])
@pytest.mark.parametrize("forge", [_degree_k_coefficient_changed,
                                   _two_codewords_swapped,
                                   _one_codeword_digit_flipped])
def test_forged_codewords_fail_the_encoding_check(tmp_path, capsys, gen,
                                                  forge):
    inst = tmp_path / "inst.json"
    assert main(gen + ["--out", str(inst)]) == 0
    data = json.loads(inst.read_text())
    forge(data)
    inst.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", "--in", str(inst))
    assert code == 1
    assert "codewords_encode_low_degree: fail" in out.splitlines()


def _top_level_array(data):
    return [data]


def _string_dimension(data):
    data["code"]["k"] = "1"


def _string_radius(data):
    data["tau"] = "2"


def _unknown_family_param(data):
    data["family"]["params"]["h"] = 1


def _unknown_kind(data):
    data["kind"] = "orbit"


def _unknown_format(data):
    data["format"] = "ranklab.report/v1"


def _string_degenerate(data):
    data["degenerate"] = "yes"


# JSON true equals the serial 1 in Python; the loader must not take it as one
def _boolean_center_serial(data):
    assert data["center"][0] == 1
    data["center"][0] = True


def _boolean_eval_point(data):
    assert data["code"]["eval_points"][0] == 1
    data["code"]["eval_points"][0] = True


# integers of the right type that no code has: the loader's ParamMismatch
def _negative_punctured(data):
    data["code"]["punctured"] = -3


def _wrong_subfield_degree(data):
    data["code"]["subfield_degree"] = 0


PARAM_MISMATCHES = (_negative_punctured, _wrong_subfield_degree)


@pytest.mark.parametrize("command", ["verify", "lift-verify", "ball"])
@pytest.mark.parametrize("malform", [_top_level_array, _string_dimension,
                                     _string_radius, _unknown_family_param,
                                     _unknown_kind, _unknown_format,
                                     _string_degenerate,
                                     _boolean_center_serial,
                                     _boolean_eval_point,
                                     *PARAM_MISMATCHES])
def test_malformed_file_exits_2_with_one_line_error(tmp_path, capsys,
                                                    malform, command):
    inst, data = _gen_gab41(tmp_path, capsys)
    inst.write_text(json.dumps(malform(data) or data))
    code, out, err = run(capsys, command, "--in", str(inst))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == (
        "ParamMismatch" if malform in PARAM_MISMATCHES
        else "MalformedInstance")


@pytest.mark.parametrize("command", ["verify", "lift-verify", "ball"])
def test_repeated_eval_point_in_file_exits_2(tmp_path, capsys, command):
    # the loader's own independence check: a repeated point makes the n
    # points GF(q)-dependent
    inst, data = _gen_gab41(tmp_path, capsys)
    data["code"]["eval_points"][1] = data["code"]["eval_points"][0]
    inst.write_text(json.dumps(data))
    code, out, err = run(capsys, command, "--in", str(inst))
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "ParamMismatch"


@pytest.mark.parametrize("command", ["verify", "lift-verify"])
def test_short_words_over_budget_exit_2(tmp_path, capsys, command):
    # the ball check reads the center's shape before its budget, so a
    # center and list one coordinate short exit 2 under any budget
    inst, data = _gen_gab41(tmp_path, capsys)
    data["center"] = data["center"][:3]
    data["codewords"] = [cw[:3] for cw in data["codewords"]]
    inst.write_text(json.dumps(data))
    code, out, err = run(capsys, command, "--in", str(inst), "--budget", "1")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "ContextMismatch"


@pytest.mark.parametrize("q", [2, 3])
def test_lift_verify_of_a_short_codeword_exits_2(tmp_path, capsys, q):
    # a listed codeword one coordinate short has no lift of the center's
    # shape: lift-verify stops before it tests any word, with a JSON error
    inst = tmp_path / "inst.json"
    assert main(["gen-explicit", "--q", str(q), "--g", "2", "--s", "1",
                 "--n", "4", "--m", "4", "--out", str(inst)]) == 0
    capsys.readouterr()
    data = json.loads(inst.read_text())
    data["codewords"][-1] = data["codewords"][-1][:-1]
    inst.write_text(json.dumps(data))
    code, out, err = run(capsys, "lift-verify", "--in", str(inst))
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "ShapeMismatch",
        "message": "lifted subspaces of different shapes"}
