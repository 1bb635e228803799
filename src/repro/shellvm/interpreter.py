"""Interpreter for the restricted shell dialect.

This is the virtual cluster's ``bash``: the deployment engine feeds it
the exact scripts Mulini generated, and every ``ssh``/``scp``/``tar``
they contain mutates virtual hosts.  Nothing in the pipeline bypasses
the generated text — if Mulini generates a broken script, deployment
fails, exactly as on a physical cluster.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.errors import ClusterError, CommandError, ShellError
from repro.faults.injector import NULL_INJECTOR
from repro.obs.tracer import as_tracer
from repro.shellvm.builtins import REGISTRY, bind_program
from repro.shellvm.environment import (
    ExitScript,
    ShellEnvironment,
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

_MAX_SCRIPT_DEPTH = 32


class LogEntry(NamedTuple):
    """One executed command, for verification and audit.

    A named tuple rather than a dataclass: one is appended per command
    executed, which makes construction cost part of every script's
    critical path under either engine.
    """

    host: str
    command: str
    status: int


# Imported below LogEntry on purpose: the compiler needs LogEntry (its
# compiled commands append to the same audit log), so the circular
# import resolves as long as the class exists before compiler loads.
from repro.shellvm.compiler import compile_text  # noqa: E402


class ShellInterpreter:
    """Executes parsed scripts against virtual hosts on one network."""

    #: The execution engine.  ``"compiled"`` runs each script as its
    #: compiled closure program; ``"interp"`` walks the AST and is the
    #: oracle the compiler is tested against.  Tests and benchmarks
    #: select the oracle by patching this class attribute.
    engine = "compiled"

    def __init__(self, network, *, tracer=None, faults=None):
        self.network = network
        self.tracer = as_tracer(tracer)
        self.faults = faults if faults is not None else NULL_INJECTOR
        self.log = []
        self.slept_seconds = 0.0
        self._depth = 0

    # -- public entry points ----------------------------------------------

    def run_script_file(self, host, path, args=(), parent_env=None):
        """Run the script stored at *path* on *host*; returns (status, out).

        Each script execution — including nested invocations from a
        parent script — is one tracing span carrying the script path,
        host and exit status, which is where per-script wall time in
        the trace report comes from.
        """
        full = normalize(path, parent_env.cwd if parent_env else "/")
        try:
            text = host.fs.read(full)
        except ClusterError:
            raise ShellError(f"no such script: {full}", script=full) \
                from None
        if parent_env is not None:
            env = parent_env.child(script=full, positional=tuple(args))
            env.host = host
        else:
            env = ShellEnvironment(host=host, positional=tuple(args),
                                   script=full)
        # Fault point: a ``daemon-kill`` armed for this trial strikes
        # between scripts — the first script that starts while a
        # matching daemon is alive somewhere on the network sees it
        # die mid-deployment.  (Guarded: fault-free campaigns run one
        # script per generated line, and even building the context
        # kwargs for a no-op injector was visible at that rate.)
        if self.faults is not NULL_INJECTOR:
            self.faults.fire("shell.script", network=self.network,
                             host=host, path=full)
        with self.tracer.span("script", path=full, host=host.name,
                              depth=self._depth) as span:
            if self.engine == "compiled":
                status, output = self._run_compiled(
                    compile_text(text, full), env)
            else:
                status, output = self._run_parsed(
                    parse(text, script=full), env)
            span.annotate(status=status)
        return status, output

    def run_text_on(self, host, text, script="<inline>", variables=None):
        """Run inline shell *text* on *host*; returns (status, output)."""
        env = ShellEnvironment(host=host, variables=variables, script=script)
        if self.engine == "compiled":
            return self._run_compiled(compile_text(text, script), env)
        return self._run_parsed(parse(text, script=script), env)

    # -- execution core ----------------------------------------------------

    def _run_compiled(self, program, env):
        """Run a compiled *program* (one closure per script) under the
        same depth accounting and ``exit`` semantics as the tree-walk."""
        if self._depth >= _MAX_SCRIPT_DEPTH:
            raise ShellError(
                f"script nesting deeper than {_MAX_SCRIPT_DEPTH} "
                f"(recursive generation bug?)", script=env.script
            )
        self._depth += 1
        output = []
        status = 0
        try:
            status = program(self, env, output)
        except ExitScript as exit_request:
            status = exit_request.status
        finally:
            self._depth -= 1
        return status, "".join(output)

    def _run_parsed(self, script, env):
        if self._depth >= _MAX_SCRIPT_DEPTH:
            raise ShellError(
                f"script nesting deeper than {_MAX_SCRIPT_DEPTH} "
                f"(recursive generation bug?)", script=script.source
            )
        self._depth += 1
        output = []
        status = 0
        try:
            for statement in script.statements:
                status = self._execute(statement, env, output)
                if env.errexit and status != 0:
                    raise errexit_failure(
                        status, getattr(statement, "line", None), env)
        except ExitScript as exit_request:
            status = exit_request.status
        finally:
            self._depth -= 1
        return status, "".join(output)

    def _execute(self, node, env, output):
        if isinstance(node, SimpleCommand):
            return self._execute_simple(node, env, output)
        if isinstance(node, AndOrList):
            return self._execute_and_or(node, env, output)
        if isinstance(node, IfClause):
            return self._execute_if(node, env, output)
        if isinstance(node, ForClause):
            return self._execute_for(node, env, output)
        raise ShellError(f"unknown AST node {type(node).__name__}")

    def _execute_and_or(self, node, env, output):
        # Non-final members of && / || chains do not trip errexit.
        saved_errexit = env.errexit
        env.errexit = False
        try:
            status = self._execute(node.first, env, output)
            for operator, command in node.rest:
                if operator == "&&" and status != 0:
                    continue
                if operator == "||" and status == 0:
                    continue
                status = self._execute(command, env, output)
        finally:
            env.errexit = saved_errexit
        return status

    def _execute_if(self, node, env, output):
        saved_errexit = env.errexit
        env.errexit = False
        try:
            condition_status = self._execute(node.condition, env, output)
        finally:
            env.errexit = saved_errexit
        body = node.then_body if condition_status == 0 else node.else_body
        status = 0
        for statement in body:
            status = self._execute(statement, env, output)
            if env.errexit and status != 0:
                raise errexit_failure(
                    status, getattr(statement, "line", None), env)
        return status

    def _execute_for(self, node, env, output):
        items = []
        for word in node.items:
            items.extend(expand_word(word, env))
        status = 0
        for item in items:
            env.set(node.variable, item)
            for statement in node.body:
                status = self._execute(statement, env, output)
                if env.errexit and status != 0:
                    raise errexit_failure(
                        status, getattr(statement, "line", None), env)
        return status

    def _execute_simple(self, node, env, output):
        for name, value_parts in node.assignments:
            env.set(name, "".join(expand_word(value_parts, env)) if
                    value_parts else "")
        argv = []
        for word in node.words:
            argv.extend(expand_word(word, env))
        if not argv:
            return 0
        diagnostic = None
        try:
            status, command_output = self._dispatch(argv, env, node)
        except CommandError as error:
            # Dispatch failures model stderr: the diagnostic belongs to
            # the captured output stream, never to a ``>``-redirected
            # file (which is still created/truncated, as bash performs
            # the redirect before command lookup).
            status, command_output = 127, ""
            diagnostic = f"{error}\n"
        self.log.append(LogEntry(env.host.name, " ".join(argv), status))
        if node.redirect is not None:
            target = expand_single(node.redirect.target, env,
                                   what="redirect target")
            env.host.fs.write(normalize(target, env.cwd), command_output,
                              append=node.redirect.append)
        else:
            output.append(command_output)
        if diagnostic is not None:
            output.append(diagnostic)
        return status

    def _dispatch(self, argv, env, node):
        name = argv[0]
        bind = REGISTRY.get(name)
        if bind is not None:
            if node.background:
                # Background builtins (monitors started with &) become
                # processes so teardown can find and kill them.
                env.host.spawn(argv, background=True)
                return 0, ""
            return bind(argv)(self, env)
        if "/" in name:
            return bind_program(argv, node.background)(self, env)
        raise CommandError(f"command not found: {name}")

    # -- audit helpers ------------------------------------------------------

    def commands_on(self, host_name):
        return [entry for entry in self.log if entry.host == host_name]

    def failed_commands(self):
        return [entry for entry in self.log if entry.status != 0]
