import os
import subprocess
import sys

from elusivecodes.cli import main
from elusivecodes.codes import read_code
from elusivecodes.constructions import (
    alt_code,
    parity_code,
    rep_code,
    sym_code,
    union_code,
)


def run_cli(*argv, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "elusivecodes.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


# ---------------------------------------------------------------------------
# construct


def test_construct_families(tmp_path):
    cases = [
        (["construct", "alt", "3"], alt_code(3)),
        (["construct", "sym", "3"], sym_code(3)),
        (["construct", "rep", "4", "3"], rep_code(4, 3)),
        (["construct", "parity", "3", "2"], parity_code(3, 2)),
        (["construct", "parity", "3", "2", "--odd"], parity_code(3, 2, parity="odd")),
    ]
    for argv, want in cases:
        out = tmp_path / "out.txt"
        assert main(argv + ["-o", str(out)]) == 0
        assert read_code(out) == want


def test_construct_prod_and_union(tmp_path):
    base = tmp_path / "base.txt"
    assert main(["construct", "rep", "2", "3", "-o", str(base)]) == 0
    prod = tmp_path / "prod.txt"
    assert main(["construct", "prod", str(base), "2", "-o", str(prod)]) == 0
    from elusivecodes.constructions import product_code

    assert read_code(prod) == product_code(rep_code(2, 3), 2)

    a = tmp_path / "a.txt"
    r = tmp_path / "r.txt"
    main(["construct", "alt", "4", "-o", str(a)])
    main(["construct", "rep", "4", "4", "-o", str(r)])
    u = tmp_path / "u.txt"
    assert main(["construct", "union", str(a), str(r), "-o", str(u)]) == 0
    assert read_code(u) == union_code(alt_code(4), rep_code(4, 4))


def test_construct_records_family_comment(tmp_path):
    out = tmp_path / "c.txt"
    main(["construct", "alt", "3", "-o", str(out)])
    first = out.read_text().splitlines()[0]
    assert first == "# family: alt 3"


def test_construct_bad_arity_is_usage_error(tmp_path):
    out = tmp_path / "x.txt"
    res = run_cli("construct", "alt", "-o", str(out))
    assert res.returncode == 2
    res = run_cli("construct", "rep", "3", "-o", str(out))
    assert res.returncode == 2


# ---------------------------------------------------------------------------
# mindist / covering-radius / neighbours


def test_mindist_and_covering_radius(tmp_path):
    code = tmp_path / "code.txt"
    main(["construct", "rep", "3", "3", "-o", str(code)])
    res = run_cli("mindist", str(code))
    assert res.returncode == 0 and res.stdout.strip() == "3"
    res = run_cli("covering-radius", str(code))
    assert res.returncode == 0 and res.stdout.strip() == "2"


def test_mindist_missing_file():
    res = run_cli("mindist", "/nonexistent/code.txt")
    assert res.returncode == 2
    assert "error:" in res.stderr


def test_neighbours_roundtrip(tmp_path):
    code = tmp_path / "code.txt"
    main(["construct", "alt", "3", "-o", str(code)])
    nb = tmp_path / "nb.txt"
    res = run_cli("neighbours", str(code), "-o", str(nb))
    assert res.returncode == 0
    from elusivecodes.codes import neighbour_set

    got = read_code(nb)
    assert got.word_set == neighbour_set(alt_code(3))


# ---------------------------------------------------------------------------
# verify


def test_verify_alt3_elusive(tmp_path):
    code = tmp_path / "alt3.txt"
    main(["construct", "alt", "3", "-o", str(code)])
    res = run_cli("verify", str(code), "--group", "diag-top", "--expect", "elusive")
    assert res.returncode == 0
    assert "is_elusive=true" in res.stdout
    assert "xc_order=18" in res.stdout


def test_verify_expectation_failure_is_exit_one(tmp_path):
    code = tmp_path / "rep.txt"
    main(["construct", "rep", "3", "3", "-o", str(code)])
    res = run_cli("verify", str(code), "--group", "diag-top", "--expect", "elusive")
    assert res.returncode == 1
    assert "is_elusive=false" in res.stdout


def test_verify_writes_report_and_images(tmp_path):
    code = tmp_path / "alt3.txt"
    main(["construct", "alt", "3", "-o", str(code)])
    report = tmp_path / "report.txt"
    res = run_cli("verify", str(code), "--group", "diag-top", "-o", str(report))
    assert res.returncode == 0
    assert report.read_text() == res.stdout
    images = sorted(p.name for p in tmp_path.glob("report.txt.image*"))
    assert images == ["report.txt.image0", "report.txt.image1"]
    from elusivecodes.constructions import odd_coset_code

    assert {read_code(tmp_path / n) for n in images} == {alt_code(3), odd_coset_code(3)}


def test_verify_wreath_group(tmp_path):
    code = tmp_path / "par.txt"
    main(["construct", "parity", "3", "2", "-o", str(code)])
    res = run_cli(
        "verify", str(code), "--group", "wreath(diag-top,2)", "--expect", "elusive"
    )
    assert res.returncode == 0
    assert "xc_order=1296" in res.stdout


def test_verify_group_file(tmp_path):
    code = tmp_path / "alt3.txt"
    main(["construct", "alt", "3", "-o", str(code)])
    grp = tmp_path / "grp.txt"
    grp.write_text(
        "3 3\n"
        "g: (0 1),(0 1),(0 1) ; sigma: id\n"
        "g: (0 1 2),(0 1 2),(0 1 2) ; sigma: id\n"
        "g: id,id,id ; sigma: (0 1)\n"
        "g: id,id,id ; sigma: (0 1 2)\n"
    )
    res = run_cli("verify", str(code), "--group", str(grp), "--expect", "elusive")
    assert res.returncode == 0


def test_verify_enum_cap_below_one_is_usage_error(tmp_path):
    code = tmp_path / "alt3.txt"
    main(["construct", "alt", "3", "-o", str(code)])
    for cap in ("0", "-1"):
        res = run_cli("verify", str(code), "--group", "diag-top", "--enum-cap", cap)
        assert res.returncode == 2
        assert "enum_cap" in res.stderr


def test_verify_group_space_mismatch(tmp_path):
    code = tmp_path / "alt3.txt"
    main(["construct", "alt", "3", "-o", str(code)])
    grp = tmp_path / "grp.txt"
    grp.write_text("2 3\ng: id,id ; sigma: (0 1)\n")
    res = run_cli("verify", str(code), "--group", str(grp))
    assert res.returncode == 2
    res = run_cli("verify", str(code), "--group", "wreath(diag-top,2)")
    assert res.returncode == 2


def test_verify_full_group_not_elusive(tmp_path):
    # the full automorphism group moves the neighbour set of alt3 around,
    # so the pair fails the fixes-neighbours requirement
    code = tmp_path / "alt3.txt"
    main(["construct", "alt", "3", "-o", str(code)])
    res = run_cli("verify", str(code), "--group", "full", "--expect", "not-elusive")
    assert res.returncode == 0
    assert "fixes_neighbours=false" in res.stdout


def test_verify_over_orbit_cap_is_exit_three(tmp_path, monkeypatch, capsys):
    code = tmp_path / "alt3.txt"
    main(["construct", "alt", "3", "-o", str(code)])
    monkeypatch.setenv("ELUSIVECODES_MAX_ORBIT", "1")
    assert main(["verify", str(code), "--group", "diag-top"]) == 3
    assert "orbit exceeded cap 1" in capsys.readouterr().err


def test_verify_past_2_63_vertices_is_usage_error(tmp_path):
    # H(32,4) has 2^64 vertices, so its vertex indices do not fit in int64
    code = tmp_path / "rep32-4.txt"
    main(["construct", "rep", "32", "4", "-o", str(code)])
    res = run_cli("verify", str(code), "--group", "full")
    assert res.returncode == 2
    assert "2^63" in res.stderr and "Traceback" not in res.stderr
    res = run_cli("neighbours", str(code), "-o", str(tmp_path / "nb.txt"))  # Γ1 needs no vertex index
    assert res.returncode == 0 and "384 vertices" in res.stdout  # 4 words, 32 * 3 each


# ---------------------------------------------------------------------------
# search


def test_search_found(tmp_path):
    out = tmp_path / "cert.txt"
    res = run_cli("search", "--m", "3", "--q", "3", "--delta", "3", "-o", str(out))
    assert res.returncode == 0
    assert "outcome=Found" in res.stdout
    assert out.read_text() == res.stdout


def test_search_exhaustive_negative():
    res = run_cli("search", "--m", "4", "--q", "3", "--delta", "3")
    assert res.returncode == 0
    assert "outcome=NoneExhaustive" in res.stdout
    assert "canonical_codes_examined=24" in res.stdout
    assert "max_code_size_seen=9" in res.stdout


def test_search_parity_filter_flag():
    with_filter = run_cli("search", "--m", "3", "--q", "2", "--delta", "3")
    assert "canonical_codes_examined=0" in with_filter.stdout
    assert "filters_applied=parity" in with_filter.stdout
    without = run_cli(
        "search", "--m", "3", "--q", "2", "--delta", "3", "--no-parity-filter"
    )
    assert "canonical_codes_examined=1" in without.stdout
    assert "filters_applied=\n" in without.stdout or "filters_applied=" in without.stdout


def test_search_aborted_is_exit_three():
    res = run_cli(
        "search",
        "--m",
        "4",
        "--q",
        "3",
        "--delta",
        "3",
        env_extra={"ELUSIVECODES_MAX_GROUP": "100"},
    )
    assert res.returncode == 3
    assert "outcome=Aborted" in res.stdout


def test_search_over_table_bytes_cap_is_exit_three(monkeypatch, capsys):
    # in process, so the 3.82 GB Stab(0) table of H(5,4) can be refused if ever
    # started: the table builder checks its bytes before _digits builds its first array
    from elusivecodes import autgroup

    def refuse(m, q):
        raise AssertionError(f"the action table of H({m},{q}) was started")

    monkeypatch.setattr(autgroup, "_digits", refuse)
    monkeypatch.delenv("ELUSIVECODES_MAX_GROUP", raising=False)
    monkeypatch.delenv("ELUSIVECODES_MAX_TABLE_BYTES", raising=False)
    assert main(["search", "--m", "5", "--q", "4", "--delta", "4"]) == 3
    assert "outcome=Aborted" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# lemmas


def test_lemmas_suite_pass_lines():
    res = run_cli("lemmas", "--suite", "same")
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    assert lines and all(l.startswith("PASS ") for l in lines)


def test_lemmas_seed_flag():
    res = run_cli("lemmas", "--suite", "act", "--seed", "5")
    assert res.returncode == 0


def test_lemmas_unknown_suite_rejected():
    res = run_cli("lemmas", "--suite", "nonsense")
    assert res.returncode == 2  # argparse rejects the choice


# ---------------------------------------------------------------------------
# top-level behaviour


def test_no_command_is_usage_error():
    res = run_cli()
    assert res.returncode == 2


def test_main_is_importable_and_returns_int(tmp_path):
    code = tmp_path / "c.txt"
    rc = main(["construct", "rep", "2", "2", "-o", str(code)])
    assert rc == 0
