"""Closure compiler for the restricted shell dialect.

The tree-walking interpreter re-discovers the same facts on every
execution of a script: node types, which words are pure literals, which
command names resolve to which builtins, how their flags parse, where
redirects point.  For the generated deployment chassis those facts are
*point-invariant* — the scripts are shared across every sweep point
through the interned parse cache, and only driver/ignition content
changes between points.

:func:`compile_text` walks a frozen AST exactly once and partially
evaluates everything the AST alone determines:

* all-literal words collapse to constant argv fragments,
* a constant argv binds its builtin once — ``REGISTRY[name](argv)``,
  the same bind-once definition the tree-walker binds on every
  execution — so flags are parsed, operands checked and absolute
  operand paths normalized at compile time,
* an ``ssh`` whose remote text is one constant command of a fusible
  builtin runs that builtin inline, without a remote script,
* constant absolute redirect targets pre-normalize their path,
* errexit checks compile to per-statement closures carrying their line.

What remains at run time is exactly the per-point work: binding
driver/ignition variables, expanding the words that mention them, and
the builtins' real effects on the virtual hosts.  A bind failure
(unknown flag, bad operand) is deferred: the compiled command raises
it each time it runs, where the tree-walker raises it, so diagnostics
stay byte-identical to the interpreter's.

Compiled programs are closures ``fn(interp, env, output) -> status``
sharing the audit log, tracer spans, fault points and builtins with
the interpreter, so a campaign stores a byte-identical database under
either engine (``benchmarks/test_bench_shellvm.py`` enforces this);
the tree-walker stays available as the oracle through the
``ShellInterpreter.engine`` class attribute.

The compile cache registers in the :mod:`repro.hotpath` plane beside
the parse cache, keyed the same way — compiled once per unique script
text, shared across trials, tenants and threads.
"""

from __future__ import annotations

from repro import hotpath
from repro.errors import CommandError, ReproError, ShellError
from repro.shellvm.builtins import (
    REGISTRY,
    bind_program,
    ssh_operands,
    ssh_refused,
)
from repro.shellvm.environment import (
    errexit_failure,
    expand_single,
    expand_word,
)
from repro.shellvm.nodes import (
    AndOrList,
    ForClause,
    IfClause,
    SimpleCommand,
)
from repro.shellvm.parser import parse
from repro.vcluster.filesystem import normalize

_COMPILE_CACHE = hotpath.MemoCache("shellvm.compile", capacity=8192)


def compile_text(text, script="<script>"):
    """The compiled form of shell *text*: ``fn(interp, env, output) ->
    status``.

    Cached on ``(script, text)``, so every trial of a sweep reuses one
    compiled program per unique script text; the parse runs only on a
    miss.
    """
    return _COMPILE_CACHE.get(
        (script, text),
        lambda: _compile_body(parse(text, script=script).statements))


# -- words --------------------------------------------------------------

def _is_literal(parts):
    return all(kind == "lit" for kind, _value, _quoted in parts)


def _compile_word(parts):
    """``(const_fields, fn)`` — exactly one of the two is set.

    Literal words expand identically in every environment, so they are
    expanded once here; variable-bearing words compile to a per-
    execution expander.
    """
    if _is_literal(parts):
        return tuple(expand_word(parts, None)), None
    return None, lambda env: expand_word(parts, env)


def _compile_assignment(name, parts):
    """``(name, const_value, fn)`` mirroring the interpreter's
    ``"".join(expand_word(parts, env)) if parts else ""``."""
    if not parts:
        return name, "", None
    if _is_literal(parts):
        return name, "".join(expand_word(parts, None)), None
    return name, None, lambda env: "".join(expand_word(parts, env))


# -- statements ---------------------------------------------------------

def _compile_statement(node):
    if isinstance(node, SimpleCommand):
        return _compile_simple(node)
    if isinstance(node, AndOrList):
        return _compile_and_or(node)
    if isinstance(node, IfClause):
        return _compile_if(node)
    if isinstance(node, ForClause):
        return _compile_for(node)
    raise ShellError(f"unknown AST node {type(node).__name__}")


def _compile_body(statements):
    """A statement sequence with interpreter-identical errexit checks."""
    steps = tuple((getattr(node, "line", None), _compile_statement(node))
                  for node in statements)

    def run_body(interp, env, output):
        status = 0
        for line, step in steps:
            status = step(interp, env, output)
            if env.errexit and status != 0:
                raise errexit_failure(status, line, env)
        return status

    return run_body


def _compile_and_or(node):
    first = _compile_statement(node.first)
    rest = tuple((operator, _compile_statement(command))
                 for operator, command in node.rest)

    def run_and_or(interp, env, output):
        # Non-final members of && / || chains do not trip errexit.
        saved_errexit = env.errexit
        env.errexit = False
        try:
            status = first(interp, env, output)
            for operator, step in rest:
                if operator == "&&" and status != 0:
                    continue
                if operator == "||" and status == 0:
                    continue
                status = step(interp, env, output)
        finally:
            env.errexit = saved_errexit
        return status

    return run_and_or


def _compile_if(node):
    condition = _compile_statement(node.condition)
    then_body = _compile_body(node.then_body)
    else_body = _compile_body(node.else_body)

    def run_if(interp, env, output):
        saved_errexit = env.errexit
        env.errexit = False
        try:
            condition_status = condition(interp, env, output)
        finally:
            env.errexit = saved_errexit
        body = then_body if condition_status == 0 else else_body
        return body(interp, env, output)

    return run_if


def _compile_for(node):
    variable = node.variable
    item_words = tuple(_compile_word(word) for word in node.items)
    const_items = None
    if all(const is not None for const, _fn in item_words):
        const_items = tuple(field for const, _fn in item_words
                            for field in const)
    body = _compile_body(node.body)

    def run_for(interp, env, output):
        if const_items is not None:
            items = const_items
        else:
            items = []
            for const, expander in item_words:
                items.extend(const if const is not None else expander(env))
        status = 0
        for item in items:
            env.set(variable, item)
            status = body(interp, env, output)
        return status

    return run_for


# -- simple commands ----------------------------------------------------

def _compile_simple(node):
    assignments = tuple(_compile_assignment(name, parts)
                        for name, parts in node.assignments)
    words = tuple(_compile_word(parts) for parts in node.words)
    const_argv = None
    if all(const is not None for const, _fn in words):
        const_argv = tuple(field for const, _fn in words for field in const)

    # The dominant chassis shape — constant argv, no assignment prefix —
    # binds its command once, with a pre-joined audit line.
    if const_argv and not node.assignments:
        name = const_argv[0]
        if name in REGISTRY:
            if node.background:
                # Backgrounded builtins become processes (monitors
                # started with &), exactly as _dispatch does before
                # binding.
                def invoke(interp, env):
                    env.host.spawn(const_argv, background=True)
                    return 0, ""
            else:
                invoke = _bind(const_argv)
            return _wrap_invoke(node, const_argv, invoke)
        if "/" in name:
            return _wrap_invoke(node, const_argv,
                                bind_program(const_argv, node.background))

    return _compile_generic_simple(node, assignments, words, const_argv)


def _bind(argv):
    """The bound invoke for the constant builtin command *argv*.

    A bind failure is deferred: the command raises it each time it
    runs, exactly where the tree-walker, binding at run time, does.
    """
    if argv[0] == "ssh":
        fused = _fused_ssh(argv)
        if fused is not None:
            return fused
    try:
        return REGISTRY[argv[0]](argv)
    except ReproError as error:
        # A fresh exception per run: programs are shared across threads.
        kind, args = type(error), error.args

        def invoke(interp, env):
            raise kind(*args)
        return invoke


def _compile_redirect(redirect):
    """``(pre_path, const_target, target_fn, append)`` for a redirect.

    A literal target always expands to exactly one field; when it is
    absolute its normalized path is also environment-independent.
    """
    if redirect is None:
        return None
    if _is_literal(redirect.target):
        target = expand_single(redirect.target, None, what="redirect target")
        if target.startswith("/"):
            return normalize(target, "/"), None, None, redirect.append
        return None, target, None, redirect.append
    expander = (lambda env: expand_single(redirect.target, env,
                                          what="redirect target"))
    return None, None, expander, redirect.append


def _deliver(env, output, redirect, command_output, diagnostic):
    """Route command output per the (compiled) redirect, diagnostics to
    the captured stream — identical to the interpreter's fixed
    semantics: a dispatch failure never lands in a redirected file."""
    if redirect is None:
        output.append(command_output)
    else:
        pre_path, const_target, target_fn, append = redirect
        if pre_path is None:
            target = const_target if target_fn is None else target_fn(env)
            pre_path = normalize(target, env.cwd)
        env.host.fs.write(pre_path, command_output, append=append)
    if diagnostic is not None:
        output.append(diagnostic)


def _wrap_invoke(node, const_argv, invoke):
    """The full statement closure around an ``(interp, env) ->
    (status, output)`` invoke: audit-log append, dispatch-failure
    diagnostics, redirect routing."""
    command = " ".join(const_argv)
    redirect = _compile_redirect(node.redirect)
    from repro.shellvm.interpreter import LogEntry

    if redirect is None:
        def run_simple(interp, env, output):
            try:
                status, command_output = invoke(interp, env)
            except CommandError as error:
                status, command_output = 127, f"{error}\n"
            interp.log.append(LogEntry(env.host.name, command, status))
            output.append(command_output)
            return status
        return run_simple

    def run_simple_redirected(interp, env, output):
        diagnostic = None
        try:
            status, command_output = invoke(interp, env)
        except CommandError as error:
            status, command_output = 127, ""
            diagnostic = f"{error}\n"
        interp.log.append(LogEntry(env.host.name, command, status))
        _deliver(env, output, redirect, command_output, diagnostic)
        return status

    return run_simple_redirected


def _compile_generic_simple(node, assignments, words, const_argv):
    redirect = _compile_redirect(node.redirect)
    from repro.shellvm.interpreter import LogEntry

    def run_simple(interp, env, output):
        for name, const_value, value_fn in assignments:
            env.set(name, const_value if value_fn is None else value_fn(env))
        if const_argv is not None:
            argv = const_argv
        else:
            argv = []
            for const, expander in words:
                argv.extend(const if const is not None else expander(env))
        if not argv:
            return 0
        diagnostic = None
        try:
            status, command_output = interp._dispatch(argv, env, node)
        except CommandError as error:
            status, command_output = 127, ""
            diagnostic = f"{error}\n"
        interp.log.append(LogEntry(env.host.name, " ".join(argv), status))
        _deliver(env, output, redirect, command_output, diagnostic)
        return status

    return run_simple


# -- ssh fusion ---------------------------------------------------------

#: Builtins an ``ssh`` remote may run inline.  None re-enters script
#: execution (``bash``, ``sh``, ``ssh``, where depth and tracing spans
#: are observable), ends the script (``exit``) or needs more of the
#: remote environment than :class:`_RemoteEnv` carries.
_FUSIBLE = frozenset(("echo", "true", "false", ":", "wait", "set", "sleep",
                      "killall", "test", "[", "mkdir", "rm", "cat", "tar",
                      "scp"))


class _RemoteEnv:
    """The fresh environment a remote script starts in, minus the
    variables and positional parameters no fusible builtin reads.

    A full :class:`ShellEnvironment` per remote command would be the
    single largest cost of a fused ssh call.
    """

    __slots__ = ("host", "script", "cwd", "errexit")

    def __init__(self, host, script):
        self.host = host
        self.script = script
        self.cwd = "/"
        self.errexit = False


def _fused_ssh(argv):
    """``ssh`` with its remote command bound inline, or None.

    Fuses when the remote text is one foreground constant command of a
    fusible builtin that binds cleanly.  That command runs without the
    remote script's ceremony (environment, depth bookkeeping, output
    buffer), which it cannot observe; every other remote — and any
    ssh argv or remote text that fails — is left to the ``ssh``
    builtin.
    """
    try:
        host_name, text = ssh_operands(argv)
        label = f"ssh:{host_name}"
        statements = parse(text, label).statements
    except ShellError:
        return None
    if len(statements) != 1:
        return None
    node = statements[0]
    if not isinstance(node, SimpleCommand) or node.assignments \
            or node.background or node.redirect is not None \
            or not all(_is_literal(parts) for parts in node.words):
        return None
    remote_argv = tuple(field for parts in node.words
                        for field in expand_word(parts, None))
    if not remote_argv or remote_argv[0] not in _FUSIBLE:
        return None
    try:
        remote = REGISTRY[remote_argv[0]](remote_argv)
    except ReproError:
        return None
    command = " ".join(remote_argv)
    from repro.shellvm.interpreter import LogEntry

    def run_ssh_fused(interp, env):
        host = interp.network.host(host_name)
        if host.crashed:
            return ssh_refused(host)
        remote_env = _RemoteEnv(host, label)
        try:
            status, output = remote(interp, remote_env)
        except CommandError as error:
            status, output = 127, f"{error}\n"
        interp.log.append(LogEntry(host_name, command, status))
        if remote_env.errexit and status != 0:
            # ``set -e`` then an unsupported option, as in the script.
            raise errexit_failure(status, node.line, remote_env)
        return status, output
    return run_ssh_fused
