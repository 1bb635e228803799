"""Differential tests: the compiled engine against the tree-walk oracle.

The shellvm compiler is only allowed to be faster, never different.
Every test here runs the same script through both engines — fresh,
identically-built networks each time — and requires the observable
surface to match exactly: exit status, captured output, the audit log,
accumulated sleep time, and every file on every host.  The corpus
covers each construct the compiler specializes; the hypothesis fuzz
walks the grammar more broadly than hand-written cases would.

The regression classes pin the interpreter bugs fixed alongside the
compiler (errexit scoping, CommandError diagnostics under redirect) so
neither engine can reintroduce them.
"""

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError, ShellError
from repro.shellvm import ShellInterpreter
from repro.shellvm.compiler import compile_text
from repro.spec import get_platform
from repro.vcluster import VirtualHost, VirtualNetwork

HOSTS = ("control", "node-1", "node-2")


def fresh_network():
    network = VirtualNetwork()
    for name in HOSTS:
        network.attach(VirtualHost(name, get_platform("warp").node_type()))
    return network


def fs_state(network):
    """Every file on every host: ``{(host, path): content}``."""
    state = {}
    for name in HOSTS:
        host = network.host(name)
        for path in host.fs.walk_files():
            state[(name, path)] = host.fs.read(path)
    return state


def run_engine(engine, text, monkeypatch, *, setup=None):
    """Run *text* on a fresh network under *engine*.

    Returns ``(status, output, log, slept, files)`` — or the raised
    ``ShellError`` in the status slot with the rest ``None``, so both
    engines can be compared even when the script aborts.
    """
    monkeypatch.setattr(ShellInterpreter, "engine", engine)
    network = fresh_network()
    if setup is not None:
        setup(network)
    interp = ShellInterpreter(network)
    try:
        status, output = interp.run_text_on(network.host("control"), text)
    except ReproError as error:
        return (type(error), str(error)), None, list(interp.log), \
            interp.slept_seconds, fs_state(network)
    return status, output, list(interp.log), interp.slept_seconds, \
        fs_state(network)


def assert_engines_agree(text, monkeypatch, *, setup=None):
    compiled = run_engine("compiled", text, monkeypatch, setup=setup)
    interp = run_engine("interp", text, monkeypatch, setup=setup)
    assert compiled == interp, (
        f"engines diverge on:\n{text}\n"
        f"compiled={compiled!r}\ninterp={interp!r}"
    )
    return interp


CORPUS = [
    # Expansion and assignment
    'echo hello world',
    'X=5\necho "$X plus ${X}"',
    'X=a b\necho "$X"',                       # assignment word-splitting
    'echo $UNSET_VARIABLE end',
    "echo 'single $X quotes'",
    # Control flow
    'if test -d /tmp; then echo yes; else echo no; fi',
    'if test 3 -gt 5; then echo big; else echo small; fi',
    'for f in a b c; do echo item $f; done',
    'X=start\nfor f in 1 2; do X="$X-$f"; done\necho $X',
    'true && echo then',
    'false && echo skipped\necho after',
    'false || echo fallback',
    'true || echo skipped\necho after',
    'false && echo a || echo b',
    # Exit status plumbing
    'false\necho status-ignored-without-errexit',
    'exit 3\necho unreachable',
    'nosuchcommand-xyz\necho continues',
    # Filesystem builtins and redirects
    'mkdir -p /srv/app/conf\ntest -d /srv/app/conf && echo made',
    'echo content > /tmp/f.txt\ncat /tmp/f.txt',
    'echo one > /tmp/f.txt\necho two >> /tmp/f.txt\ncat /tmp/f.txt',
    'echo data > /tmp/a\ncp /tmp/a /tmp/b\ncat /tmp/b',
    'echo gone > /tmp/x\nrm /tmp/x\ntest -f /tmp/x || echo removed',
    'hostname',
    'cd /tmp\npwd',
    'sleep 2\nsleep 0.5\necho slept',
    # Remote operations
    'ssh node-1 "echo remote"',
    'ssh node-1 "mkdir -p /opt/app"\nssh node-1 "test -d /opt/app" '
    '&& echo ok',
    'echo payload > /tmp/pkg\nscp /tmp/pkg node-2:/tmp/pkg\n'
    'ssh node-2 "cat /tmp/pkg"',
    'ssh no-such-host "echo nope"\necho continues',
    # errexit interplay
    'set -e\necho before\ntrue\necho after',
    'set -e\nfalse || echo spared\necho alive',
    'set -e\nif false; then echo no; else echo cond-spared; fi',
    # Bind failures surface when the command runs, diagnostic and all
    'mkdir\necho after',
    'rm -z /x\necho after',
    'sleep abc\necho after',
    '[ a\necho after',
    'set -x\necho after',
    'set -e -x\necho unreachable',
    'tar -xzf /nope.tgz\necho after',
    # Relative operands resolve against the cwd at run time
    'cd /tmp\nmkdir rel\ntest -d rel && echo made\ntest -d /tmp/rel',
    'cd /tmp\necho x > f\ncat f\nrm f\ntest -f /tmp/f || echo gone',
    # Remotes that must not fuse, and fused ones at the edges
    'ssh node-1 exit 3\necho after',
    'ssh node-1 cd /tmp\necho after',
    'ssh node-1 "export A=1"\necho after',
    'ssh node-1 mkdir rel\nssh node-1 test -d /rel && echo made',
    'ssh node-1 "set -e -x"\necho unreachable',
    'ssh node-1 "sleep abc"\necho after',
]


@pytest.mark.parametrize("text", CORPUS)
def test_corpus_engines_agree(text, monkeypatch):
    assert_engines_agree(text, monkeypatch)


def test_subscript_invocation_agrees(monkeypatch):
    def setup(network):
        network.host("control").fs.write(
            "/opt/child.sh", 'echo child $1\nCHILD=x\nexit 7\n')

    status, output, log, _, _ = assert_engines_agree(
        '/opt/child.sh arg1\necho parent CHILD=$CHILD',
        monkeypatch, setup=setup)
    assert status == 0
    assert "child arg1" in output
    assert "parent CHILD=\n" in output       # child vars do not leak
    assert ("control", "/opt/child.sh arg1", 7) in log  # child status audited


def test_errexit_abort_agrees(monkeypatch):
    compiled = run_engine(
        "compiled", 'set -e\necho first\nfalse\necho unreachable',
        monkeypatch)
    interp = run_engine(
        "interp", 'set -e\necho first\nfalse\necho unreachable',
        monkeypatch)
    assert compiled == interp
    error_key, log = compiled[0], compiled[2]
    assert error_key[0] is ShellError        # both engines abort
    assert [entry.command for entry in log] == ["set -e", "echo first",
                                                "false"]


# -- grammar fuzz -------------------------------------------------------

_WORDS = st.sampled_from(["a", "bb", "x1", "conf", "0", "-n"])
_VARS = st.sampled_from(["X", "Y", "PATHY"])


def _simple(draw):
    kind = draw(st.sampled_from(
        ["echo", "assign", "mkdir", "write", "test", "status", "expand"]))
    if kind == "echo":
        return "echo " + " ".join(draw(st.lists(_WORDS, min_size=0,
                                                max_size=3)))
    if kind == "assign":
        return f"{draw(_VARS)}={draw(_WORDS)}"
    if kind == "mkdir":
        return f"mkdir -p /tmp/{draw(_WORDS)}"
    if kind == "write":
        return f"echo {draw(_WORDS)} > /tmp/{draw(_WORDS)}.txt"
    if kind == "test":
        return f"test -f /tmp/{draw(_WORDS)}.txt"
    if kind == "status":
        return draw(st.sampled_from(["true", "false", ":"]))
    return f'echo "${{{draw(_VARS)}}}"'


@st.composite
def shell_scripts(draw):
    lines = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        shape = draw(st.sampled_from(["plain", "andor", "if", "for"]))
        if shape == "plain":
            lines.append(_simple(draw))
        elif shape == "andor":
            op = draw(st.sampled_from(["&&", "||"]))
            lines.append(f"{_simple(draw)} {op} {_simple(draw)}")
        elif shape == "if":
            cond = draw(st.sampled_from(["true", "false",
                                         "test -d /tmp"]))
            lines.append(f"if {cond}; then {_simple(draw)}; "
                         f"else {_simple(draw)}; fi")
        else:
            items = " ".join(draw(st.lists(_WORDS, min_size=1,
                                           max_size=3)))
            lines.append(f"for I in {items}; do {_simple(draw)}; done")
    if draw(st.booleans()):
        lines.insert(0, "set -e")
    return "\n".join(lines)


@settings(max_examples=120, deadline=None)
@given(shell_scripts())
def test_fuzz_engines_agree(text):
    # No monkeypatch inside hypothesis: set the engine by hand around
    # each engine run (fresh networks make the runs independent).
    results = {}
    previous = ShellInterpreter.engine
    try:
        for engine in ("compiled", "interp"):
            ShellInterpreter.engine = engine
            network = fresh_network()
            interp = ShellInterpreter(network)
            try:
                status, output = interp.run_text_on(
                    network.host("control"), text)
                head = (status, output)
            except ReproError as error:
                head = (type(error), str(error))
            results[engine] = (head, list(interp.log),
                               interp.slept_seconds, fs_state(network))
    finally:
        ShellInterpreter.engine = previous
    assert results["compiled"] == results["interp"], (
        f"engines diverge on:\n{text}"
    )


# -- regression: errexit scoping ----------------------------------------


class TestErrexitRegression:
    """``set -e`` must abort loop/branch bodies, not only top level."""

    @pytest.mark.parametrize("engine", ["compiled", "interp"])
    def test_errexit_aborts_inside_for_body(self, engine, monkeypatch):
        status, _, log, _, _ = run_engine(
            engine, 'set -e\nfor f in 1 2 3; do false; echo $f; done',
            monkeypatch)
        assert status[0] is ShellError
        commands = [entry.command for entry in log]
        assert commands == ["set -e", "false"]   # loop never reaches echo

    @pytest.mark.parametrize("engine", ["compiled", "interp"])
    def test_errexit_aborts_inside_if_body(self, engine, monkeypatch):
        status, _, log, _, _ = run_engine(
            engine, 'set -e\nif true; then false; echo no; fi',
            monkeypatch)
        assert status[0] is ShellError
        assert [entry.command for entry in log] == ["set -e", "true",
                                                    "false"]

    @pytest.mark.parametrize("engine", ["compiled", "interp"])
    def test_errexit_spares_condition_positions(self, engine,
                                                monkeypatch):
        status, output, _, _, _ = run_engine(
            engine,
            'set -e\n'
            'if false; then echo then; else echo else; fi\n'
            'false || echo or-arm\n'
            'echo survived',
            monkeypatch)
        assert status == 0
        assert output == "else\nor-arm\nsurvived\n"

    @pytest.mark.parametrize("engine", ["compiled", "interp"])
    def test_errexit_trips_on_failed_and_list(self, engine, monkeypatch):
        # A && list whose *final* status is non-zero fails the line as
        # a whole, and errexit applies to that list-level status.
        status, _, _, _, _ = run_engine(
            engine, 'set -e\nfalse && echo and-arm\necho unreachable',
            monkeypatch)
        assert status[0] is ShellError


# -- regression: diagnostics never land in redirected files -------------


class TestDiagnosticRedirectRegression:
    """A dispatch failure's diagnostic models stderr: it must reach the
    captured output, while the ``>`` target is still created empty (the
    redirect happens before command lookup, as in bash)."""

    @pytest.mark.parametrize("engine", ["compiled", "interp"])
    def test_missing_command_diagnostic_skips_file(self, engine,
                                                   monkeypatch):
        status, output, log, _, files = run_engine(
            engine, 'nosuchcmd-qq arg > /tmp/out.txt\necho after',
            monkeypatch)
        assert status == 0
        assert "command not found: nosuchcmd-qq" in output
        assert ("control", "nosuchcmd-qq arg", 127) in log
        assert files[("control", "/tmp/out.txt")] == ""

    @pytest.mark.parametrize("engine", ["compiled", "interp"])
    def test_redirect_truncates_before_failed_lookup(self, engine,
                                                     monkeypatch):
        status, output, _, _, files = run_engine(
            engine,
            'echo old-content > /tmp/out.txt\n'
            'nosuchcmd-qq > /tmp/out.txt\n'
            'cat /tmp/out.txt\necho done',
            monkeypatch)
        assert status == 0
        assert files[("control", "/tmp/out.txt")] == ""
        assert "command not found" in output
        assert output.endswith("done\n")


# -- regression: concurrent compiles ------------------------------------


def test_concurrent_compiles_past_any_table_bound():
    """Compiling from several threads raises nothing, even once more
    than 4096 distinct texts have been compiled."""
    for n in range(4200):
        compile_text(f"echo fill-{n}")
    errors = []

    def compile_many(worker):
        try:
            for n in range(600):
                compile_text(f"echo worker-{worker}-{n % 50}")
        except Exception as error:   # noqa: BLE001 - any failure counts
            errors.append(error)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=compile_many, args=(worker,))
                   for worker in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(previous)
    assert errors == []
