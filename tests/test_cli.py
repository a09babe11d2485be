import hashlib
import json
from fractions import Fraction

import pytest

from vicsek_sandpile import CapacityError, build, radius_pmf
from vicsek_sandpile.cli import (
    EXIT_CAPACITY,
    EXIT_USAGE,
    EXIT_VERIFICATION,
    config_from_json,
    config_to_json,
    main,
)
from vicsek_sandpile.identity import identity


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_graph_command(capsys):
    code, out, _ = run(capsys, "graph", "--level", "2")
    assert code == 0
    data = json.loads(out)
    assert data["vertices"] == 76
    assert data["edges"] == 150
    assert data["degree_histogram"] == {"3": 52, "6": 24}


@pytest.mark.parametrize("level", range(5))
def test_graph_output_matches_a_count_over_every_vertex(capsys, level):
    """The degree histogram prints byte for byte what counting the degrees
    vertex by vertex, keys sorted as strings, prints."""
    g = build(level)
    histogram: dict[str, int] = {}
    for d in g.degrees.tolist():
        histogram[str(d)] = histogram.get(str(d), 0) + 1
    payload = {
        "level": level,
        "vertices": g.num_vertices,
        "edges": g.num_edges,
        "sink": list(g.sink),
        "degree_histogram": dict(sorted(histogram.items())),
    }
    _, out, _ = run(capsys, "graph", "--level", str(level))
    assert out == json.dumps(payload, separators=(",", ":")) + "\n"


def test_graph_level0(capsys):
    code, out, _ = run(capsys, "graph", "--level", "0")
    data = json.loads(out)
    assert (data["vertices"], data["edges"]) == (4, 6)


def test_graph_validation_exit_codes(capsys):
    code, _, err = run(capsys, "graph", "--level", "-1")
    assert code == EXIT_USAGE and "level" in err
    code, _, err = run(capsys, "graph", "--level", "42")
    assert code == EXIT_CAPACITY and "cap" in err


def test_chain_absorb(capsys):
    code, out, _ = run(capsys, "chain", "absorb")
    assert code == 0
    assert out.strip() == "1,3/4,1/2,1/4,0"


def test_chain_matrix(capsys):
    code, out, _ = run(capsys, "chain", "matrix")
    lines = out.strip().splitlines()
    assert lines[0] == "1,0,0,0,0"
    assert lines[1] == "1/2,3/16,1/8,3/16,0"
    assert lines[2] == "3/16,3/16,1/4,3/16,3/16"
    assert lines[3] == "0,3/16,1/8,3/16,1/2"
    assert lines[4] == "0,0,0,0,1"


def test_chain_matrix_json(capsys):
    code, out, _ = run(capsys, "chain", "matrix", "--format", "json")
    data = json.loads(out)
    assert data["rows"][1][0] == "1/2"


def test_chain_kstep(capsys):
    code, out, _ = run(capsys, "chain", "kstep", "--k", "1", "--start", "1")
    assert out.strip() == "1/2,3/16,1/8,3/16,0"


def test_chain_pmf(capsys):
    code, out, _ = run(capsys, "chain", "pmf", "--max-n", "9")
    lines = out.strip().splitlines()
    assert len(lines) == 10
    q = radius_pmf(9)
    assert lines[9] == f"9,{q.numerator},{q.denominator},{float(q)!r}"
    assert lines[0].startswith("0,19,32,")  # 1/2 + 3/32, see test_chain
    assert lines[2] == "2,0,1,0.0"


def test_chain_pmf_rejects_negative_max_n(capsys):
    code, out, err = run(capsys, "chain", "pmf", "--max-n", "-1")
    assert code == EXIT_USAGE and out == "" and "non-negative" in err


def test_chain_pmf_json(capsys):
    code, out, _ = run(capsys, "chain", "pmf", "--max-n", "3", "--format", "json")
    data = json.loads(out)
    assert data["pmf"][1] == {
        "n": 1,
        "numerator": "9",
        "denominator": "128",
        "value": float(Fraction(9, 128)),
    }


def test_mc_record_and_determinism(capsys):
    args = ("mc", "--mode", "chain", "--level", "3", "--trials", "20000",
            "--seed", "42", "--workers", "1")
    code, out1, _ = run(capsys, *args)
    assert code == 0
    rec1 = json.loads(out1)
    assert rec1["record_version"] == 1
    assert rec1["params"]["trials"] == 20000
    assert abs(rec1["result"]["estimate"] - 0.75) < 0.02
    _, out2, _ = run(capsys, *args)
    rec2 = json.loads(out2)
    assert rec1["result"] == rec2["result"]


def test_mc_rejects_negative_workers(capsys):
    code, out, err = run(
        capsys, "mc", "--mode", "sandpile", "--level", "2", "--trials", "10", "--workers", "-2"
    )
    assert code == EXIT_USAGE and "--workers" in err
    assert out == ""


def test_mc_records_the_workers_that_ran(capsys):
    # 10 trials are one trial block, so one worker runs
    code, out, _ = run(
        capsys, "mc", "--mode", "sandpile", "--level", "2", "--trials", "10", "--workers", "4"
    )
    assert code == 0
    assert json.loads(out)["params"]["workers"] == 1


def test_mc_capacity(capsys):
    code, _, err = run(
        capsys, "mc", "--mode", "sandpile", "--level", "7", "--trials", "10"
    )
    assert code == EXIT_CAPACITY


def test_group_command(capsys):
    code, out, _ = run(capsys, "group", "--level", "1")
    assert json.loads(out) == ["1"] * 5 + ["4"] * 10


def test_group_level_four(capsys):
    code, out, _ = run(capsys, "group", "--level", "4")
    assert code == 0
    assert json.loads(out) == ["1"] * 625 + ["4"] * 1250


def test_group_capacity(capsys):
    code, _, _ = run(capsys, "group", "--level", "9")
    assert code == EXIT_CAPACITY


def test_identity_command_roundtrip(capsys):
    code, out, _ = run(capsys, "identity", "--level", "1")
    data = json.loads(out)
    assert data["order"] == "lex-xy"
    level, config = config_from_json(data)
    assert level == 1
    assert config == identity(1)


def test_identity_render_pgm(capsys, tmp_path):
    target = tmp_path / "id2.pgm"
    code, out, _ = run(capsys, "identity", "--level", "2", "--render", str(target))
    assert code == 0
    content = target.read_text().splitlines()
    assert content[0] == "P2"
    assert content[1] == "10 10"
    values = {int(v) for line in content[3:] for v in line.split()}
    assert values <= {0, 80, 160, 240, 255}
    assert {80, 160, 240} & values  # heights 2 and 4|5 are both present


def test_identity_render_svg(capsys, tmp_path):
    target = tmp_path / "id1.svg"
    code, _, _ = run(capsys, "identity", "--level", "1", "--render", str(target))
    assert code == 0
    body = target.read_text()
    assert body.startswith("<svg")
    assert body.count("<rect") == 16


@pytest.mark.parametrize(
    "level, suffix, digest",
    [
        (3, "svg", "d9472d2e2533abc3204e437805d5dd7a3bc0f8e0bdc7c26a025ef5040f40264e"),
        (3, "pgm", "4604c17e876ff4ca703d6ab7a88c3aed94c5ec9985a186ca5257de5364ffa227"),
        (5, "svg", "99cf0a64c70daf51e83f5b1f9f7f75aa58fafeb197b89d08ab9df70630d81667"),
    ],
)
def test_identity_renders_are_byte_for_byte(capsys, tmp_path, level, suffix, digest):
    """The renders of the identity, pinned by their sha256."""
    target = tmp_path / f"id{level}.{suffix}"
    code, _, _ = run(capsys, "identity", "--level", str(level), "--render", str(target))
    assert code == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == digest


def test_identity_render_bad_extension(capsys, tmp_path):
    code, _, err = run(
        capsys, "identity", "--level", "1", "--render", str(tmp_path / "x.png")
    )
    assert code == EXIT_USAGE


def test_identity_verify_flag(capsys):
    code, out, _ = run(capsys, "identity", "--level", "1", "--verify", "5")
    data = json.loads(out)
    assert data["verification"]["clauses"]["a_recurrent"] is True
    assert data["verification"]["sink_particles_mod4"] == 2


def test_identity_verify_level_four(capsys):
    code, out, _ = run(capsys, "identity", "--level", "4", "--verify", "5")
    data = json.loads(out)
    assert code == 0
    assert data["verification"]["samples"] == 5
    assert all(data["verification"]["clauses"].values())
    assert len(data["verification"]["clauses"]) == 5


def test_identity_verify_needs_a_sample(capsys):
    code, out, err = run(capsys, "identity", "--level", "1", "--verify", "-3")
    assert code == EXIT_USAGE and "sample" in err
    assert out == ""


def test_verification_exit_code(capsys, monkeypatch):
    import vicsek_sandpile.cli as cli_mod
    from vicsek_sandpile import VerificationError

    def explode(*a, **k):
        raise VerificationError("clause (x) failed")

    monkeypatch.setattr(cli_mod, "verify_identity", explode)
    code, _, err = run(capsys, "identity", "--level", "1", "--verify", "1")
    assert code == EXIT_VERIFICATION
    assert "verification error" in err


def test_config_json_roundtrip():
    ident = identity(2)
    payload = config_to_json(2, ident)
    level, back = config_from_json(json.loads(json.dumps(payload)))
    assert level == 2 and back == ident
    with pytest.raises(ValueError):
        config_from_json({"level": 1, "order": "other", "heights": [0] * 15})
    with pytest.raises(ValueError):
        config_from_json({"level": 1, "order": "lex-xy", "heights": [0] * 7})
    with pytest.raises(ValueError, match="non-negative"):
        config_from_json({"level": 1, "order": "lex-xy", "heights": [0] * 14 + [-1]})
    # outside input is read as JSON integers only, never coerced
    for heights in ([2.5, 0, 0], ["3", "1", "1"], [True, 1, 1], "311", [2**64, 0, 0]):
        with pytest.raises(ValueError, match="integers"):
            config_from_json({"level": 0, "order": "lex-xy", "heights": heights})
    for level in (2.9, "1", True, -1):
        with pytest.raises(ValueError, match="non-negative integer"):
            config_from_json({"level": level, "order": "lex-xy", "heights": [0] * 15})
    # the cap is checked before 5**level is computed
    with pytest.raises(CapacityError):
        config_from_json({"level": 10**7, "order": "lex-xy", "heights": []})


def test_usage_error_from_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["chain"])  # missing subcommand
    assert exc.value.code == EXIT_USAGE
