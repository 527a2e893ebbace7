"""Command-line interface, exercised in-process through main()."""

import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from plankb import bundles
from plankb.cli import main
from plankb.kg.turtle import import_turtle
from plankb.mapper import COMPETENCY_QUERIES
from plankb.pddl.parser import parse_domain


def data(name):
    return str(bundles.data_dir() / name)


@pytest.fixture()
def workspace(tmp_path, monkeypatch):
    monkeypatch.setenv("PLANKB_WORKSPACE", str(tmp_path))
    return tmp_path


@pytest.fixture()
def bw_ttl(workspace, capsys):
    args = [
        "build-kg", data("domains/blocksworld.pddl"),
    ] + [str(p) for p in bundles.problem_paths("blocksworld")] + [
        "--plans", data("plans/blocksworld"), "-o", "bw.ttl",
    ]
    assert main(args) == 0
    capsys.readouterr()
    return workspace / "bw.ttl"


def test_parse_prints_canonical_form(capsys):
    rc = main(["parse", data("domains/blocksworld.pddl"),
               str(bundles.problem_paths("blocksworld")[0])])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("(define (domain blocksworld)")
    assert "(define (problem bw-p01)" in out
    parse_domain(out[: out.index("(define (problem")])


def test_parse_missing_file_is_domain_error(capsys):
    assert main(["parse", "/no/such/file.pddl"]) == 1
    assert "error:" in capsys.readouterr().err


def test_parse_syntax_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.pddl"
    bad.write_text("(define (domain broken")
    assert main(["parse", str(bad)]) == 1


def test_parse_error_gives_the_line_and_column(tmp_path, capsys):
    (tmp_path / "d.pddl").write_text("(define (domain d) (:predicates (p ?x)))")
    (tmp_path / "p.pddl").write_text("(define (problem p) (:domain d)\n  (:init (p ?x)))")
    (tmp_path / "empty.pddl").write_text("")
    assert main(["parse", str(tmp_path / "d.pddl"), str(tmp_path / "p.pddl")]) == 1
    assert capsys.readouterr().err == "error: 2:10: atom (p ?x) in init is not ground\n"
    assert main(["parse", str(tmp_path / "empty.pddl")]) == 1
    assert capsys.readouterr().err == "error: 1:1: expected '(' but found end of input\n"


@pytest.mark.parametrize("part", ["effect", "goal"])
def test_parse_reads_formulas_nested_10000_deep(tmp_path, capsys, part):
    # The condition and effect walks keep their own stack, not Python's, and
    # the deep formula prints as the flat one.
    def parse(depth):
        formula = "(and " * depth + "(q) (not (p))" + ")" * depth
        effect, goal = (formula, "(q)") if part == "effect" else ("(q)", formula)
        (tmp_path / "d.pddl").write_text(
            "(define (domain deep) (:predicates (p) (q))\n"
            "  (:action a :parameters () :precondition (p) :effect {}))".format(effect))
        (tmp_path / "p.pddl").write_text(
            "(define (problem deep) (:domain deep) (:init (p)) (:goal {}))".format(goal))
        assert main(["parse", str(tmp_path / "d.pddl"), str(tmp_path / "p.pddl")]) == 0
        return capsys.readouterr()

    deep = parse(10_000)
    assert "Traceback" not in deep.err
    assert deep.out == parse(1).out


def test_usage_error_exit_code_2():
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2


def test_build_kg_writes_graph(bw_ttl):
    g = import_turtle(bw_ttl.read_text())
    assert len(g) > 500


def test_query_table_and_json(bw_ttl, capsys):
    assert main(["query", "bw.ttl", "--id", "C3",
                 "--arg", "domain=blocksworld"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 4
    assert main(["query", "bw.ttl", "--id", "C7", "--arg", "domain=blocksworld",
                 "--arg", "action=unstack", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"count": 2}


def test_query_help_lists_each_query(capsys):
    with pytest.raises(SystemExit) as err:
        main(["query", "--help"])
    assert err.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    assert "  C4   domain fact      problems whose initial state contains a fact" in lines
    for q in COMPETENCY_QUERIES.values():
        assert sum(line.split()[:1] == [q.id] and q.description in line
                   for line in lines) == 1


def test_query_unknown_id_fails(bw_ttl, capsys):
    with pytest.raises(SystemExit) as err:
        main(["query", "bw.ttl", "--id", "C99"])
    assert err.value.code == 2


def test_ingest_and_select(bw_ttl, capsys):
    assert main(["ingest-ipc", data("ipc2011.csv"), "-o", "bw.ttl"]) == 0
    capsys.readouterr()
    assert main(["select-planner", "bw.ttl", "--domain", "scanalyzer",
                 "--policy", "ontology"]) == 0
    out = capsys.readouterr().out
    assert "planner-fdss-1" in out
    assert main(["select-planner", "bw.ttl", "--domain", "sokoban",
                 "--policy", "random", "--seed", "3"]) == 0
    first = capsys.readouterr().out
    main(["select-planner", "bw.ttl", "--domain", "sokoban",
          "--policy", "random", "--seed", "3"])
    assert capsys.readouterr().out == first


def test_planner_names_that_need_escaping(workspace, capsys):
    (workspace / "ipc.csv").write_text(
        "planner,domain,solved,total\n"
        "fast downward,elevators,18,20\n"
        "lama>x,elevators,12,20\n"
    )
    assert main(["ingest-ipc", "ipc.csv", "-o", "g.ttl"]) == 0
    capsys.readouterr()
    assert main(["select-planner", "g.ttl", "--domain", "elevators",
                 "--policy", "ontology"]) == 0
    assert "#planner-fast%20downward\tontology\t" in capsys.readouterr().out


def test_select_no_data_fails(bw_ttl, capsys):
    assert main(["select-planner", "bw.ttl", "--domain", "nowhere",
                 "--policy", "ontology"]) == 1
    assert "error:" in capsys.readouterr().err


def test_mine_macros_table_and_json(bw_ttl, capsys):
    assert main(["mine-macros", "bw.ttl", "--domain", "blocksworld"]) == 0
    out = capsys.readouterr().out
    assert "pick-up * stack" in out
    assert main(["mine-macros", "bw.ttl", "--domain", "blocksworld",
                 "--domain-file", data("domains/blocksworld.pddl"),
                 "--format", "json"]) == 0
    pairs = json.loads(capsys.readouterr().out)
    assert pairs[0]["first"] == "pick-up"
    assert pairs[0]["second"] == "stack"
    assert all(
        {"first", "second", "pattern", "first_arity", "frequency"} <= set(p)
        for p in pairs
    )


def test_full_pipeline(bw_ttl, workspace, capsys):
    assert main(["ingest-ipc", data("ipc2011.csv"), "-o", "bw.ttl"]) == 0
    capsys.readouterr()
    assert main(["mine-macros", "bw.ttl", "--domain", "blocksworld",
                 "--domain-file", data("domains/blocksworld.pddl"),
                 "--format", "json"]) == 0
    (workspace / "macros.json").write_text(capsys.readouterr().out)
    assert main(["augment", "--domain", data("domains/blocksworld.pddl"),
                 "--macros", "macros.json", "-k", "2",
                 "-o", "bw-aug.pddl"]) == 0
    capsys.readouterr()
    aug = parse_domain((workspace / "bw-aug.pddl").read_text())
    assert len(aug.actions) == 6
    assert "pick-up_stack" in aug.action_map()
    assert main(["bench", "--domain", data("domains/blocksworld.pddl"),
                 "--problems", data("problems"),
                 "--macros", "macros.json", "-k", "2",
                 "--format", "csv"]) == 0
    csv_out = capsys.readouterr().out
    assert csv_out.startswith("problem,variant,")
    assert "bw-p01,original," in csv_out
    assert "bw-p01,macro," in csv_out


def test_solve_prints_plan(capsys):
    rc = main(["solve", data("domains/blocksworld.pddl"),
               str(bundles.problem_paths("blocksworld")[0])])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("(")
    assert "; cost 6" in out


def test_store_flag_persists_macros(bw_ttl, capsys):
    assert main(["mine-macros", "bw.ttl", "--domain", "blocksworld",
                 "--domain-file", data("domains/blocksworld.pddl"),
                 "--store"]) == 0
    capsys.readouterr()
    g = import_turtle(bw_ttl.read_text())
    from plankb.kg.schema import SCHEMA
    from plankb.mapper import domain_iri

    assert g.objects(domain_iri("blocksworld"), SCHEMA.prop("hasMacro"))


def test_mine_macros_and_augment_unify_each_pair_once(bw_ttl, workspace, capsys,
                                                     monkeypatch):
    from plankb import macros

    unified = []
    unify = macros._unify
    monkeypatch.setattr(macros, "_unify", lambda d, p: unified.append(p) or unify(d, p))
    assert main(["mine-macros", "bw.ttl", "--domain", "blocksworld",
                 "--domain-file", data("domains/blocksworld.pddl"),
                 "--format", "json", "--store"]) == 0
    report = capsys.readouterr().out
    assert unified and len(set(unified)) == len(unified)
    (workspace / "macros.json").write_text(report)
    unified.clear()
    assert main(["augment", "--domain", data("domains/blocksworld.pddl"),
                 "--macros", "macros.json", "-o", "bw-aug.pddl"]) == 0
    assert unified == macros.load_report(report, "macros.json")


BW_DOMAIN = data("domains/blocksworld.pddl")
BW_PROBLEM = str(bundles.problem_paths("blocksworld")[0])
GRIPPER_PROBLEM = (bundles.data_dir() / "problems" / "gr-p01.pddl").read_text()
UNKNOWN_ACTION = json.dumps([{
    "first": "fly", "second": "stack", "pattern": [[0, 0]],
    "first_arity": 1, "frequency": 3,
}])
NESTED_PATTERN = json.dumps([{
    "first": "pick-up", "second": "stack", "pattern": [[0], [0], [1]],
    "first_arity": 1, "frequency": 3,
}])
STRING_FREQUENCY = json.dumps([{
    "first": "pick-up", "second": "stack", "pattern": [0, 0, 1],
    "first_arity": 1, "frequency": "3",
}])


def macro_report(pattern, first_arity=1, frequency=3):
    return json.dumps([{
        "first": "pick-up", "second": "stack", "pattern": pattern,
        "first_arity": first_arity, "frequency": frequency,
    }])


BW_TEXT = (bundles.data_dir() / "domains" / "blocksworld.pddl").read_text()
STACK = BW_TEXT[BW_TEXT.index("(:action stack"):BW_TEXT.index("(:action unstack")]
REPEATED_PARAMETER = BW_TEXT.replace(STACK, STACK.replace("?y", "?x"))  # (?x ?x)
BW_PLAN = (bundles.data_dir() / "plans" / "blocksworld" / "bw-p01.bfs.plan").read_text()
REVERSED_PLAN = "\n".join(reversed(BW_PLAN.splitlines())) + "\n"
EX = "http://example.org/"
STEP = "plan:plan-problem-blocksworld-bw-p01-planner-bfs-0d6efd9e-step-0 "
FDSS_ELEVATORS = "plan:relevance-fdss-1-elevators "


def edited_graph(old, new):
    """Makes the build-kg + ingest-ipc graph of the blocksworld corpus with
    the one line that starts with `old` changed to `old + new + " ."`."""
    def make(bw_ttl):
        assert main(["ingest-ipc", data("ipc2011.csv"), "-o", "bw.ttl"]) == 0
        lines = bw_ttl.read_text().splitlines(keepends=True)
        [i] = [i for i, line in enumerate(lines) if line.startswith(old)]
        lines[i] = old + new + " .\n"
        return "".join(lines)
    return make


MINE = ["mine-macros", "bad.ttl", "--domain", "blocksworld"]
SELECT = ["select-planner", "bad.ttl", "--domain", "elevators", "--policy", "ontology"]


@pytest.mark.parametrize("argv,files,code", [
    (["query", "bw.ttl", "--id", "C3", "--arg", "domain"], {}, 2),
    (["augment", "--domain", BW_DOMAIN, "--macros", "m.json", "-o", "out.pddl"],
     {"m.json": "{not json"}, 1),
    (["augment", "--domain", BW_DOMAIN, "--macros", "m.json", "-o", "out.pddl"],
     {"m.json": "5"}, 1),
    (["augment", "--domain", BW_DOMAIN, "--macros", "m.json", "-o", "out.pddl"],
     {"m.json": '[{"first": "pick-up"}]'}, 1),
    (["augment", "--domain", BW_DOMAIN, "--macros", "m.json", "-o", "out.pddl"],
     {"m.json": UNKNOWN_ACTION}, 1),
    (["bench", "--domain", BW_DOMAIN, "--problems", data("problems"),
      "--macros", "m.json"], {"m.json": "[1, 2"}, 1),
    (["bench", "--domain", BW_DOMAIN, "--problems", data("problems"),
      "--macros", "m.json"], {"m.json": ""}, 1),
    (["bench", "--domain", BW_DOMAIN, "--problems", "no-such-dir"], {}, 1),
    (["bench", "--domain", BW_DOMAIN, "--problems", "other"],
     {"other/gr-p01.pddl": GRIPPER_PROBLEM}, 1),
    (["bench", "--domain", BW_DOMAIN, "--problems", data("problems"),
      "--max-expansions", "0"], {}, 2),
    (["bench", "--domain", BW_DOMAIN, "--problems", data("problems"),
      "--max-seconds", "nan"], {}, 2),
    (["build-kg", BW_DOMAIN, BW_PROBLEM, "--plans", "no-such-dir",
      "-o", "out.ttl"], {}, 1),
    (["build-kg", BW_DOMAIN, "p.pddl", "-o", "out.ttl"],
     {"p.pddl": "(define (problem"}, 1),
    (["ingest-ipc", "ipc.csv", "-o", "out.ttl"],
     {"ipc.csv": "planner,domain,solved,total\nlama,elevators,x,20\n"}, 1),
    (["select-planner", "bad.ttl", "--domain", "elevators", "--policy", "ontology"],
     {"bad.ttl": "<a> <b"}, 1),
    (["mine-macros", "bw.ttl", "--domain", "blocksworld", "--store"], {}, 2),
    (["mine-macros", "bw.ttl", "--domain", "nowhere"], {}, 1),
    (["parse", BW_DOMAIN, "p.pddl"], {"p.pddl": "(define (problem"}, 1),
    (["solve", BW_DOMAIN, BW_PROBLEM, "--max-expansions", "0"], {}, 2),
    (["solve", BW_DOMAIN, BW_PROBLEM, "--max-expansions", "-3"], {}, 2),
    (["solve", BW_DOMAIN, BW_PROBLEM, "--max-seconds", "-1"], {}, 2),
    (["solve", BW_DOMAIN, BW_PROBLEM, "--max-seconds", "nan"], {}, 2),
    (["solve", BW_DOMAIN, "p.pddl"], {"p.pddl": GRIPPER_PROBLEM}, 1),
    (["augment", "--domain", BW_DOMAIN, "--macros", "m.json", "-k", "-1",
      "-o", "out.pddl"], {"m.json": "[]"}, 2),
    (["augment", "--domain", BW_DOMAIN, "--macros", "m.json", "-k", "0",
      "-o", "out.pddl"], {"m.json": "[]"}, 2),
    (["bench", "--domain", BW_DOMAIN, "--problems", data("problems"),
      "-k", "-1"], {}, 2),
    (["augment", "--domain", BW_DOMAIN, "--macros", "m.json", "-o", "out.pddl"],
     {"m.json": NESTED_PATTERN}, 1),
    (["augment", "--domain", BW_DOMAIN, "--macros", "m.json", "-o", "out.pddl"],
     {"m.json": STRING_FREQUENCY}, 1),
    (["solve", "d.pddl", BW_PROBLEM], {"d.pddl": REPEATED_PARAMETER}, 1),
    (["build-kg", BW_DOMAIN, BW_PROBLEM, "--plans", "plans", "-o", "out.ttl"],
     {"plans/bw-p01.bfs.plan": REVERSED_PLAN}, 1),
    (["augment", "--domain", BW_DOMAIN, "--macros", "m.json", "-k", "2",
      "-o", "out.pddl"], {"m.json": macro_report([0, 5, 9])}, 1),
    (["augment", "--domain", BW_DOMAIN, "--macros", "m.json", "-k", "2",
      "-o", "out.pddl"], {"m.json": macro_report([-1, 0, 1])}, 1),
    (["augment", "--domain", BW_DOMAIN, "--macros", "m.json", "-k", "2",
      "-o", "out.pddl"], {"m.json": macro_report([0, 0, 1], first_arity=4)}, 1),
    (["augment", "--domain", BW_DOMAIN, "--macros", "m.json", "-k", "2",
      "-o", "out.pddl"], {"m.json": macro_report([0, 0, 1], frequency=-2)}, 1),
    (["build-kg", BW_DOMAIN, BW_PROBLEM, "--plans", "plans", "-o", "out.ttl"],
     {"plans/bw-p01.bfs.plan": "(fly a)\n"}, 1),
    (["query", "bw.ttl", "--id", "C1", "--arg", "domain=nosuch"], {}, 2),
    (["query", "bw.ttl", "--id", "C2", "--arg", "planner=x", "--arg", "domain=y",
      "--arg", "extra=z"], {}, 2),
    (["query", "bw.ttl", "--id", "C3", "--arg", "domain=blocksworld",
      "--arg", "domain=gripper"], {}, 2),
    (["query", "g.ttl", "--id", "C1"], {"g.ttl": "<> <{0}p> <{0}o> .\n".format(EX)}, 1),
    (["query", "g.ttl", "--id", "C1"],
     {"g.ttl": "@prefix p: <> .\np: <{0}p> <{0}o> .\n".format(EX)}, 1),
    (["query", "g.ttl", "--id", "C1"], {"g.ttl": "@prefix p: <> .\np: <x> <y> .\n"}, 1),
    (["ingest-ipc", data("ipc2011.csv"), "-o", "g.ttl"],
     {"g.ttl": "<{0}\x01> <{0}p> <{0}o> .\n".format(EX)}, 1),
    (["parse", "d.pddl"], {"d.pddl": b"(define (domain \xff))"}, 1),
    (["query", "g.ttl", "--id", "C1"], {"g.ttl": b"<http://example.org/\xff> <a> <b> ."}, 1),
    (["build-kg", BW_DOMAIN, BW_PROBLEM, "--plans", "plans", "-o", "out.ttl"],
     {"plans/bw-p01.bfs.plan": b"(pick-up \xff)\n"}, 1),
    (["query", "dir", "--id", "C1"], {"dir/x": ""}, 1),
    (["parse", "dir"], {"dir/x": ""}, 1),
    (["build-kg", BW_DOMAIN, BW_PROBLEM, "-o", "dir"], {"dir/x": ""}, 1),
    (MINE, {"bad.ttl": edited_graph(STEP + "plan:hasActionName ", '""')}, 1),
    (MINE, {"bad.ttl": edited_graph(STEP + "plan:hasStepIndex ", '"x"')}, 1),
    (MINE, {"bad.ttl": edited_graph(STEP + "plan:hasActionName ", "plan:x")}, 1),
    (MINE, {"bad.ttl": edited_graph(STEP + "plan:hasStepIndex ", "plan:x")}, 1),
    (SELECT, {"bad.ttl": edited_graph(FDSS_ELEVATORS + "plan:hasSolvedPercentage ",
                                      '"lots"^^xsd:decimal')}, 1),
    (SELECT, {"bad.ttl": edited_graph(FDSS_ELEVATORS + "plan:hasSolvedPercentage ",
                                      "plan:x")}, 1),
])
def test_malformed_input_exits_with_error_not_traceback(
        bw_ttl, workspace, capsys, argv, files, code):
    for name, text in files.items():
        (workspace / name).parent.mkdir(parents=True, exist_ok=True)
        if callable(text):
            text = text(bw_ttl)
        if isinstance(text, bytes):
            (workspace / name).write_bytes(text)
        else:
            (workspace / name).write_text(text)
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    assert rc == code
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("text,reason", [
    ("(fly a)\n", "line 1: no ground action matches (fly a)"),
    (REVERSED_PLAN, "invalid plan: step 0 (stack a b): precondition (holding a) fails"),
])
def test_build_kg_names_the_broken_plan_file(workspace, capsys, text, reason):
    (workspace / "plans").mkdir()
    (workspace / "plans" / "bw-p01.bfs.plan").write_text(text)
    rc = main(["build-kg", BW_DOMAIN, BW_PROBLEM, "--plans", "plans", "-o", "out.ttl"])
    assert rc == 1
    assert capsys.readouterr().err == "error: {}: {}\n".format(
        workspace / "plans" / "bw-p01.bfs.plan", reason)


@pytest.mark.parametrize("argv", [
    ["query", "dir", "--id", "C1"],
    ["parse", "dir"],
    ["build-kg", BW_DOMAIN, BW_PROBLEM, "-o", "dir"],
    ["augment", "--domain", BW_DOMAIN, "--macros", "dir", "-o", "out.pddl"],
    ["augment", "--domain", BW_DOMAIN, "--macros", "m.json", "-o", "dir"],
    ["ingest-ipc", data("ipc2011.csv"), "-o", "dir"],
])
def test_directory_path_names_the_path(workspace, capsys, argv):
    (workspace / "dir").mkdir()
    (workspace / "m.json").write_text("[]")
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: {}: Is a directory\n".format(workspace / "dir")


def test_output_parent_directories_are_created(workspace, capsys):
    assert main(["build-kg", BW_DOMAIN, BW_PROBLEM, "-o", "a/b/out.ttl"]) == 0
    assert (workspace / "a" / "b" / "out.ttl").is_file()
    # A parent that is a file is named after the output path.
    (workspace / "f").write_text("")
    assert main(["build-kg", BW_DOMAIN, BW_PROBLEM, "-o", "f/out.ttl"]) == 1
    assert capsys.readouterr().err == "error: {}: File exists: {}\n".format(
        workspace / "f" / "out.ttl", workspace / "f")


def test_build_kg_skips_misnamed_and_foreign_plans(workspace, capsys):
    plans = workspace / "plans"
    plans.mkdir()
    for path in bundles.plan_paths("blocksworld"):
        shutil.copy(path, plans / path.name)
    (plans / "noplanner.plan").write_text("(pick-up a)\n")
    (plans / "zz-unknown.x.plan").write_text("(pick-up a)\n")
    problems = [str(p) for p in bundles.problem_paths("blocksworld")]
    rc = main(["build-kg", BW_DOMAIN] + problems + ["--plans", "plans", "-o", "bw.ttl"])
    out, err = capsys.readouterr()
    assert rc == 0
    assert err.splitlines() == [
        "skipping {}: expected <problem>.<planner>.plan".format(plans / "noplanner.plan"),
        "skipping {}: problem 'zz-unknown' not in this bundle".format(
            plans / "zz-unknown.x.plan"),
    ]
    assert out == "wrote 772 triples to bw.ttl\n"
    assert len(import_turtle((workspace / "bw.ttl").read_text())) == 772


def test_cli_imports_only_the_standard_library():
    # The modules loaded before the import (a site `.pth` file may load
    # some) are left out, so only what `plankb.cli` pulls in is checked.
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import plankb.cli\n"
        "new = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
        "print(sorted(new - {'plankb'} - set(sys.stdlib_module_names)))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_cli_start_up_loads_no_dataclasses_inspect_or_hashlib():
    # Every command pays for these at start-up: `dataclasses` loads
    # `inspect` and with it `ast`, `dis` and `tokenize`, and `hashlib`
    # loads OpenSSL.  What a bare interpreter loads (a site `.pth` file may
    # load some of them) is left out.
    probe = (
        "import sys\n"
        "{}"
        "print(sorted({{'dataclasses', 'inspect', 'hashlib'}} & set(sys.modules)))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))

    def loaded(code):
        out = subprocess.run([sys.executable, "-c", probe.format(code)], env=env,
                             capture_output=True, text=True, check=True).stdout
        return set(ast.literal_eval(out))

    assert loaded("import plankb.cli\n") - loaded("") == set()


UNKNOWN_PREDICATES = """
(define (domain unk)
  (:requirements :strips)
  (:predicates (p ?x))
  (:action act
    :parameters (?x)
    :precondition (and (foo ?x) (bar ?y) (baz ?x))
    :effect (and (zap ?x) (zop ?x))))
"""


def test_error_messages_do_not_depend_on_the_hash_seed(tmp_path):
    # Each message names members of a set: the least failing precondition,
    # the least unmet goal literal, and the issues in the printer's order.
    # A fresh interpreter per seed, as the string hash seed is fixed at start.
    (tmp_path / "stack").mkdir()
    (tmp_path / "stack" / "bw-p01.x.plan").write_text("(stack c a)\n")
    (tmp_path / "empty").mkdir()
    (tmp_path / "empty" / "bw-p01.x.plan").write_text("")
    (tmp_path / "unk.pddl").write_text(UNKNOWN_PREDICATES)
    bw = [data("domains/blocksworld.pddl"), str(bundles.problem_paths("blocksworld")[0])]
    commands = [
        ["build-kg", *bw, "--plans", "stack", "-o", "g.ttl"],
        ["build-kg", *bw, "--plans", "empty", "-o", "g.ttl"],
        ["parse", "unk.pddl"],
        ["build-kg", "unk.pddl", "-o", "g.ttl"],
    ]
    probe = "from plankb.cli import main\nfor argv in {!r}:\n    print(main(argv))\n".format(
        commands)
    src = Path(__file__).resolve().parents[1] / "src"
    outputs = set()
    for seed in range(6):
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=str(seed))
        proc = subprocess.run([sys.executable, "-c", probe], env=env, cwd=tmp_path,
                              capture_output=True, text=True, check=True)
        outputs.add((proc.stdout, proc.stderr))
    assert len(outputs) == 1
    (out, err), = outputs
    issue = "issue: {} at action act: {}"
    assert err.splitlines() == [
        "error: stack/bw-p01.x.plan: invalid plan: step 0 (stack c a): "
        "precondition (clear a) fails",
        "error: empty/bw-p01.x.plan: invalid plan: "
        "goal literal (on a b) does not hold in final state",
        issue.format("UnknownPredicate", "predicate 'bar' in precondition"),
        issue.format("UnboundVariable", "variable '?y' in precondition"),
        issue.format("UnknownPredicate", "predicate 'baz' in precondition"),
        issue.format("UnknownPredicate", "predicate 'foo' in precondition"),
        issue.format("UnknownPredicate", "predicate 'zap' in add effect"),
        issue.format("UnknownPredicate", "predicate 'zop' in add effect"),
        "error: domain 'unk' is not well-formed: "
        "UnknownPredicate at action act: predicate 'bar' in precondition",
    ]
    assert out.startswith("1\n1\n") and out.endswith(")\n1\n1\n")
