"""A generative sweep of the command line: every subcommand, run in-process
through main(), with each path slot holding a valid bundled file, a
directory, a missing path, an empty file, non-UTF-8 bytes, a truncated
prefix of a valid file or a one-byte change of one, and each value slot a
valid or an invalid value.  Whatever the input, a command exits 0, 1 or 2
(argparse's usage errors raise SystemExit(2)) and prints no traceback.  When
an input file it must read is missing, a directory or not UTF-8, and no value
is one it refuses, it exits 1."""

import contextlib
import io
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plankb import bundles
from plankb.cli import main
from plankb.mapper import COMPETENCY_QUERIES

PROBLEMS = ("bw-p01.pddl", "bw-p02.pddl", "bw-p03.pddl")
PLANS = ("bw-p01.bfs.plan", "bw-p02.bfs.plan", "bw-p03.bfs.plan")

FILE_KINDS = ("valid", "directory", "missing", "empty", "not utf-8", "truncated", "changed")
BAD_FILE_KINDS = ("directory", "missing", "not utf-8")
DIR_KINDS = ("valid", "file", "missing", "empty", "one bad file")
OUTPUT_KINDS = ("new", "new parent", "directory", "under a file")

DOMAIN_NAMES = ("blocksworld", "elevators", "gripper", "", "no such", "a%b/c")
ARG_VALUES = ("blocksworld", "bw-p01", "pick-up", "lmcut", "(clear a)", "", "a b%")
# The values an option takes, then those it refuses with a usage error (exit 2).
LIMITS = ("300",), ("0", "-1", "x", "nan")
K = ("2", "1"), ("0", "-1", "x")
ALGORITHMS = ("breadth-first", "greedy-best-first", "a-star"), ("dfs",)


def run(argv):
    """main's exit code with its standard output and error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class Corpus(dict):
    """File contents by name, printed by name only: hypothesis prints the
    arguments of a falsifying example, and warns on a long repr, which
    `-W error` turns into an error that hides the example."""

    def __repr__(self):
        return "Corpus({})".format(", ".join(sorted(self)))


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Valid files by name: the bundled blocksworld domain, three of its
    problems and their plans, the IPC table, and the graph and macro report
    the pipeline makes from them."""
    data = bundles.data_dir()
    files = Corpus({"domain.pddl": (data / "domains" / "blocksworld.pddl").read_bytes(),
                    "ipc2011.csv": (data / "ipc2011.csv").read_bytes()})
    files.update({name: (data / "problems" / name).read_bytes() for name in PROBLEMS})
    files.update({name: (data / "plans" / "blocksworld" / name).read_bytes()
                  for name in PLANS})
    root = tmp_path_factory.mktemp("corpus")
    for name, text in files.items():
        (root / name).write_bytes(text)
    (root / "plans").mkdir()
    for name in PLANS:
        shutil.copy(root / name, root / "plans")
    graph, csv = str(root / "graph.ttl"), str(root / "ipc2011.csv")
    problems = [str(root / name) for name in PROBLEMS]
    assert run(["build-kg", str(root / "domain.pddl"), *problems,
                "--plans", str(root / "plans"), "-o", graph])[0] == 0
    assert run(["ingest-ipc", csv, "-o", graph])[0] == 0
    code, report, _ = run(["mine-macros", graph, "--domain", "blocksworld",
                           "--format", "json"])
    assert code == 0 and report.count('"first"') >= 2
    files["graph.ttl"] = Path(graph).read_bytes()
    files["macros.json"] = report.encode()
    return files


class Slots:
    """Fills a command's slots with drawn files and values under `root`."""

    def __init__(self, draw, root, corpus):
        self.draw, self.root, self.corpus = draw, root, corpus
        self.count = 0
        self.bad_input = False  # an input file that must be read is one of BAD_FILE_KINDS
        self.refused = False  # a value slot holds a value the command refuses

    def _path(self, name):
        self.count += 1
        return self.root / "{}-{}".format(self.count, name)

    def _write(self, path, kind, valid):
        if kind == "directory":
            path.mkdir()
        elif kind != "missing":
            path.write_bytes(self._content(kind, valid))

    def _content(self, kind, valid):
        if kind == "valid":
            return valid
        if kind == "empty":
            return b""
        i = self.draw(st.integers(0, len(valid) - 1), label="position")
        if kind == "not utf-8":
            return valid[:i] + b"\xff" + valid[i:]
        if kind == "truncated":
            return valid[:i]
        # One byte replaced by another ASCII byte, a control character or
        # a delimiter among them: 0-126, stepping over the byte it replaces.
        byte = self.draw(st.integers(0, 126), label="byte")
        byte += byte >= valid[i]
        return valid[:i] + bytes([byte]) + valid[i + 1:]

    def kind(self, kinds, label):
        """One of `kinds`, the first (valid) in about half the draws, so a
        bad slot is often the only one and a command reaches its later
        slots."""
        return self.draw(st.sampled_from((kinds[0],) * (len(kinds) - 1) + kinds), label=label)

    def file(self, name, required=True):
        """A file slot; not `required` if the command makes the file when
        it is missing."""
        path = self._path(name)
        kind = self.kind(FILE_KINDS, name)
        self.bad_input |= required and kind in BAD_FILE_KINDS
        self._write(path, kind, self.corpus[name])
        return str(path)

    def directory(self, names):
        path = self._path("dir")
        kind = self.kind(DIR_KINDS, "directory")
        if kind == "file":
            path.write_bytes(self.corpus[names[0]])
        elif kind != "missing":
            path.mkdir()
            if kind != "empty":
                for name in names:
                    (path / name).write_bytes(self.corpus[name])
            if kind == "one bad file":
                name = self.draw(st.sampled_from(names), label="bad file")
                (path / name).unlink()
                self._write(path / name, self.draw(st.sampled_from(FILE_KINDS[1:]), label=name),
                            self.corpus[name])
        return str(path)

    def output(self):
        kind = self.draw(st.sampled_from(OUTPUT_KINDS), label="output")
        path = self._path("out")
        if kind == "directory":
            path.mkdir()
        elif kind == "new parent":
            path = path / "sub" / "out"
        elif kind == "under a file":
            path.write_bytes(b"")
            path = path / "out"
        return str(path)

    def value(self, taken, refused=()):
        value = self.draw(st.sampled_from(taken + refused))
        self.refused |= value in refused
        return value

    def maybe(self, make):
        """make() or nothing."""
        return make() if self.draw(st.booleans()) else []


def query_args(s):
    qid = s.value(tuple(sorted(COMPETENCY_QUERIES)), ("C0",))
    keys = COMPETENCY_QUERIES[qid].parameters if qid in COMPETENCY_QUERIES else ()
    arg = st.one_of(
        st.builds("{}={}".format, st.sampled_from(keys + ("zz",)), st.sampled_from(ARG_VALUES)),
        st.just("no-equals"),
    )
    args = s.draw(st.lists(arg, max_size=len(keys) + 1), label="args")
    # An argument without "=", of another query or given twice is refused.
    given = [a.partition("=")[0] for a in args]
    s.refused |= not set(given) <= set(keys) or len(set(given)) < len(given)
    return ["--id", qid] + [x for a in args for x in ("--arg", a)]


COMMANDS = {
    "parse": lambda s: ["parse", s.file("domain.pddl"), *s.maybe(lambda: [s.file(PROBLEMS[0])])],
    "build-kg": lambda s: [
        "build-kg", s.file("domain.pddl"), s.file(PROBLEMS[0]), s.file(PROBLEMS[1]),
        *s.maybe(lambda: ["--plans", s.directory(PLANS)]), "-o", s.output()],
    "query": lambda s: [
        "query", s.file("graph.ttl"), *query_args(s), "--format", s.value(("table", "json"))],
    "ingest-ipc": lambda s: [
        "ingest-ipc", s.file("ipc2011.csv"), "-o", s.file("graph.ttl", required=False),
        "--planner-type", s.value(("optimal", "satisficing", ""))],
    "select-planner": lambda s: [
        "select-planner", s.file("graph.ttl"), "--domain", s.value(DOMAIN_NAMES),
        "--policy", s.value(("ontology", "random"), ("best",)),
        "--seed", s.value(("0", "7", "-3"), ("x",))],
    "mine-macros": lambda s: [
        "mine-macros", s.file("graph.ttl"), "--domain", s.value(DOMAIN_NAMES),
        *s.maybe(lambda: ["--domain-file", s.file("domain.pddl")]),
        *s.maybe(lambda: ["--store"]), "--format", s.value(("table", "json"))],
    "augment": lambda s: [
        "augment", "--domain", s.file("domain.pddl"), "--macros", s.file("macros.json"),
        "-k", s.value(*K), "-o", s.output()],
    "bench": lambda s: [
        "bench", "--domain", s.file("domain.pddl"), "--problems", s.directory(PROBLEMS[:2]),
        *s.maybe(lambda: ["--macros", s.file("macros.json")]), "-k", s.value(*K),
        "--algo", s.value(*ALGORITHMS), "--max-expansions", s.value(*LIMITS),
        "--format", s.value(("table", "csv"))],
    "solve": lambda s: [
        "solve", s.file("domain.pddl"), s.file(PROBLEMS[0]), "--algo", s.value(*ALGORITHMS),
        "--heuristic", s.value(("goal-count", "zero"), ("ff",)),
        "--max-expansions", s.value(*LIMITS)],
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_cli_exits_0_1_or_2_without_traceback(corpus, command, data):
    with tempfile.TemporaryDirectory() as tmp:
        slots = Slots(data.draw, Path(tmp), corpus)
        argv = COMMANDS[command](slots)
        code, _, err = run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    # mine-macros --store without --domain-file is a usage error.
    refused = slots.refused or ("--store" in argv and "--domain-file" not in argv)
    if slots.bad_input and not refused:
        assert code == 1, (argv, code, err)
