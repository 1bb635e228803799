"""Builtin commands for the shell interpreter.

Each builtin is one *bind-once* definition: ``REGISTRY[name](argv)``
parses flags, checks operands and normalizes absolute paths, raising
:class:`CommandError` for a bad argv, then returns
``invoke(interp, env) -> (status, output)``.  The invoke does the
builtin's real work on the virtual host/filesystem/network, which is
how the generated deployment scripts take effect on the cluster;
relative operands are normalized against ``env.cwd`` when it runs.

Both engines share these definitions: the compiler binds a constant
argv once and runs the invoke on every execution, the tree-walker
binds and invokes on each execution.
"""

from __future__ import annotations

from repro.errors import ClusterError, CommandError
from repro.shellvm.environment import ExitScript
from repro.vcluster.archives import extraction_plan
from repro.vcluster.filesystem import normalize

REGISTRY = {}


def builtin(name):
    def register(bind):
        REGISTRY[name] = bind
        return bind
    return register


def _flags(argv, known):
    """Split leading ``-x`` flags from operands; unknown flags error."""
    flags = set()
    operands = []
    for arg in argv[1:]:
        if arg.startswith("-") and len(arg) > 1 and not operands \
                and not arg.lstrip("-").isdigit():
            for char in arg[1:]:
                if char not in known:
                    raise CommandError(
                        f"{argv[0]}: unknown flag -{char}"
                    )
                flags.add(char)
        else:
            operands.append(arg)
    return flags, operands


def _bind_path(operand):
    """``fn(cwd) -> path`` for *operand*: an absolute path is normalized
    once, here; a relative one against *cwd* on every call."""
    if operand.startswith("/"):
        path = normalize(operand)
        return lambda cwd: path
    return lambda cwd: normalize(operand, cwd)


def _result(status, output=""):
    """An invoke that always returns ``(status, output)``."""
    result = status, output
    return lambda interp, env: result


@builtin("echo")
def _echo(argv):
    args = argv[1:]
    newline = "\n"
    if args and args[0] == "-n":
        newline = ""
        args = args[1:]
    return _result(0, " ".join(args) + newline)


@builtin("true")
@builtin(":")
@builtin("wait")
def _true(argv):
    return _result(0)


@builtin("false")
def _false(argv):
    return _result(1)


@builtin("exit")
def _exit(argv):
    status = 0
    if len(argv) > 1:
        try:
            status = int(argv[1])
        except ValueError:
            raise CommandError(f"exit: bad status {argv[1]!r}")

    def invoke(interp, env):
        raise ExitScript(status)
    return invoke


@builtin("set")
def _set(argv):
    errexit = unsupported = None
    for arg in argv[1:]:
        if arg not in ("-e", "+e"):
            unsupported = f"set: unsupported option {arg!r}"
            break
        errexit = arg == "-e"

    def invoke(interp, env):
        # Options apply left to right: those before an unsupported
        # option still take effect.
        if errexit is not None:
            env.errexit = errexit
        if unsupported is not None:
            raise CommandError(unsupported)
        return 0, ""
    return invoke


@builtin("export")
def _export(argv):
    # `export NAME` without value is a no-op for us.
    pairs = tuple(arg.split("=", 1) for arg in argv[1:] if "=" in arg)

    def invoke(interp, env):
        for name, value in pairs:
            env.set(name, value)
        return 0, ""
    return invoke


@builtin("cd")
def _cd(argv):
    target = argv[1] if len(argv) > 1 else "/"
    path = _bind_path(target)

    def invoke(interp, env):
        full = path(env.cwd)
        if not env.host.fs.is_dir(full):
            return 1, f"cd: no such directory: {target}\n"
        env.cwd = full
        return 0, ""
    return invoke


@builtin("pwd")
def _pwd(argv):
    return lambda interp, env: (0, env.cwd + "\n")


@builtin("hostname")
def _hostname(argv):
    return lambda interp, env: (0, env.host.name + "\n")


@builtin("sleep")
def _sleep(argv):
    if len(argv) != 2:
        raise CommandError("sleep: expected one duration argument")
    try:
        seconds = float(argv[1])
    except ValueError:
        raise CommandError(f"sleep: bad duration {argv[1]!r}")

    def invoke(interp, env):
        interp.slept_seconds += seconds
        return 0, ""
    return invoke


@builtin("chmod")
def _chmod(argv):
    # Permission bits are not modelled; succeed if targets exist.
    _mode_flags, operands = _flags(argv, "R")
    targets = tuple((operand, _bind_path(operand))
                    for operand in operands[1:])

    def invoke(interp, env):
        for operand, path in targets:
            if not env.host.fs.exists(path(env.cwd)):
                return 1, f"chmod: no such file: {operand}\n"
        return 0, ""
    return invoke


@builtin("mkdir")
def _mkdir(argv):
    flags, operands = _flags(argv, "p")
    if not operands:
        raise CommandError("mkdir: missing operand")
    paths = tuple(map(_bind_path, operands))
    parents = "p" in flags

    def invoke(interp, env):
        for path in paths:
            try:
                env.host.fs.mkdir(path(env.cwd), parents=parents)
            except ClusterError as error:
                return 1, f"mkdir: {error}\n"
        return 0, ""
    return invoke


@builtin("rm")
def _rm(argv):
    flags, operands = _flags(argv, "rf")
    if not operands:
        raise CommandError("rm: missing operand")
    targets = tuple((operand, _bind_path(operand)) for operand in operands)
    force = "f" in flags
    recursive = "r" in flags

    def invoke(interp, env):
        fs = env.host.fs
        for operand, path in targets:
            full = path(env.cwd)
            if not fs.exists(full):
                if force:
                    continue
                return 1, f"rm: no such file or directory: {operand}\n"
            fs.remove(full, recursive=recursive)
        return 0, ""
    return invoke


@builtin("cp")
def _cp(argv):
    flags, operands = _flags(argv, "r")
    if len(operands) != 2:
        raise CommandError("cp: expected source and destination")
    source, target = map(_bind_path, operands)
    recursive = "r" in flags

    def invoke(interp, env):
        src = source(env.cwd)
        dst = target(env.cwd)
        if not recursive and env.host.fs.is_dir(src):
            return 1, f"cp: -r required for directory {operands[0]}\n"
        try:
            env.host.fs.copy(src, dst)
        except ClusterError as error:
            return 1, f"cp: {error}\n"
        return 0, ""
    return invoke


@builtin("cat")
def _cat(argv):
    if len(argv) < 2:
        raise CommandError("cat: missing operand")
    targets = tuple((operand, _bind_path(operand)) for operand in argv[1:])

    def invoke(interp, env):
        fs = env.host.fs
        chunks = []
        for operand, path in targets:
            full = path(env.cwd)
            if not fs.is_file(full):
                return 1, f"cat: no such file: {operand}\n"
            chunks.append(fs.read(full))
        return 0, "".join(chunks)
    return invoke


@builtin("tar")
def _tar(argv):
    """Supports extraction: ``tar -xzf archive.tar.gz -C /dest``."""
    args = argv[1:]
    mode = None
    archive = None
    dest = None
    index = 0
    while index < len(args):
        arg = args[index]
        if arg.startswith("-") and "f" in arg:
            mode = "x" if "x" in arg else ("c" if "c" in arg else None)
            index += 1
            if index >= len(args):
                raise CommandError("tar: -f needs an archive name")
            archive = args[index]
        elif arg == "-C":
            index += 1
            if index >= len(args):
                raise CommandError("tar: -C needs a directory")
            if not args[index]:
                normalize("")   # fails before later arguments are read
            dest = _bind_path(args[index])
        else:
            raise CommandError(f"tar: unsupported argument {arg!r}")
        index += 1
    if mode != "x" or archive is None:
        raise CommandError("tar: only extraction (-xzf) is supported")
    archive_path = _bind_path(archive)

    def invoke(interp, env):
        fs = env.host.fs
        directory = env.cwd if dest is None else dest(env.cwd)
        path = archive_path(env.cwd)
        if not fs.is_file(path):
            return 1, f"tar: no such archive: {archive}\n"
        try:
            plan = extraction_plan(fs.read(path), directory)
        except ClusterError as error:
            return 1, f"tar: {error}\n"
        fs.mkdir(directory, parents=True)
        fs.write_many(plan)
        return 0, ""
    return invoke


@builtin("scp")
def _scp(argv):
    flags, operands = _flags(argv, "r")
    if len(operands) != 2:
        raise CommandError("scp: expected source and destination")
    source, target = map(_bind_endpoint, operands)
    recursive = "r" in flags

    def invoke(interp, env):
        src_host, src_path = source(interp, env)
        dst_host, dst_path = target(interp, env)
        if not recursive and src_host is env.host \
                and env.host.fs.is_dir(src_path):
            return 1, f"scp: -r required for directory {operands[0]}\n"
        try:
            interp.network.transfer(src_host, src_path, dst_host, dst_path)
        except ClusterError as error:
            return 1, f"scp: {error}\n"
        return 0, ""
    return invoke


def _bind_endpoint(spec):
    """``fn(interp, env) -> (host, path)`` for an scp operand:
    ``host:path`` is remote (a relative path starts at /), anything
    else is local."""
    if ":" in spec and not spec.startswith("/"):
        host_name, operand = spec.split(":", 1)
        path = _bind_path(operand)
        return lambda interp, env: (interp.network.host(host_name),
                                    path("/"))
    path = _bind_path(spec)
    return lambda interp, env: (env.host, path(env.cwd))


def ssh_operands(argv):
    """``(host name, remote command text)`` of an ``ssh`` argv."""
    args = argv[1:]
    # Tolerate the usual non-interactive options.
    while args and args[0] in ("-q", "-n", "-T"):
        args = args[1:]
    if not args:
        raise CommandError("ssh: missing host")
    if len(args) < 2:
        raise CommandError("ssh: missing remote command")
    return args[0], " ".join(args[1:])


def ssh_refused(host):
    """``(status, output)`` of an ssh to a crashed *host*.

    A dark host refuses the connection; under ``set -e`` the
    surrounding deployment script aborts, exactly like a real crashed
    node mid-deploy.
    """
    return 255, (f"ssh: connect to host {host.name}: "
                 f"connection refused ({host.crash_reason})\n")


@builtin("ssh")
def _ssh(argv):
    host_name, text = ssh_operands(argv)
    script = f"ssh:{host_name}"

    def invoke(interp, env):
        host = interp.network.host(host_name)
        if host.crashed:
            return ssh_refused(host)
        return interp.run_text_on(host, text, script=script)
    return invoke


@builtin("bash")
@builtin("sh")
def _run_script(argv):
    if len(argv) < 2:
        raise CommandError(f"{argv[0]}: missing script operand")
    path = _bind_path(argv[1])
    args = argv[2:]

    def invoke(interp, env):
        return interp.run_script_file(env.host, path(env.cwd), args=args,
                                      parent_env=env)
    return invoke


@builtin("killall")
def _killall(argv):
    if len(argv) != 2:
        raise CommandError("killall: expected one process name")
    name = argv[1]

    def invoke(interp, env):
        if not env.host.kill_by_name(name):
            return 1, f"killall: no process found: {name}\n"
        return 0, ""
    return invoke


@builtin("test")
def _test(argv):
    return _bind_test(argv[1:], argv[0])


@builtin("[")
def _bracket(argv):
    if argv[-1] != "]":
        raise CommandError("[: missing closing ]")
    return _bind_test(argv[1:-1], "[")


_PROBES = {"-f": "is_file", "-d": "is_dir", "-e": "exists"}


def _bind_test(args, name):
    """The invoke for the ``test`` expression *args*: a file probe runs
    on each call; anything else is evaluated (or rejected) here."""
    negate = False
    while args and args[0] == "!":
        negate = not negate
        args = args[1:]
    if len(args) == 2 and args[0] in _PROBES:
        probe = _PROBES[args[0]]
        path = _bind_path(args[1])

        def invoke(interp, env):
            found = getattr(env.host.fs, probe)(path(env.cwd))
            return (0 if found != negate else 1), ""
        return invoke
    return _result(0 if _evaluate_test(args, name) != negate else 1)


def _evaluate_test(args, name):
    """The truth of a ``test`` expression that reads no file."""
    if not args:
        return False
    if len(args) == 2:
        flag, operand = args
        if flag == "-n":
            return operand != ""
        if flag == "-z":
            return operand == ""
        raise CommandError(f"{name}: unknown test {flag!r}")
    if len(args) == 3:
        left, operator, right = args
        if operator == "=":
            return left == right
        if operator == "!=":
            return left != right
        numeric = {"-eq": "==", "-ne": "!=", "-gt": ">",
                   "-ge": ">=", "-lt": "<", "-le": "<="}
        if operator in numeric:
            try:
                lhs, rhs = int(left), int(right)
            except ValueError:
                raise CommandError(
                    f"{name}: integer expected: {left!r} {right!r}"
                )
            return {
                "-eq": lhs == rhs, "-ne": lhs != rhs, "-gt": lhs > rhs,
                "-ge": lhs >= rhs, "-lt": lhs < rhs, "-le": lhs <= rhs,
            }[operator]
        raise CommandError(f"{name}: unknown operator {operator!r}")
    if len(args) == 1:
        return args[0] != ""
    raise CommandError(f"{name}: cannot evaluate {args!r}")


def bind_program(argv, background):
    """The invoke that runs the program at path ``argv[0]``.

    A ``.sh`` file is interpreted in place; any other foreground binary
    runs to completion (a transient process that already exited
    successfully); a background one becomes a live process.
    """
    path = _bind_path(argv[0])
    args = tuple(argv[1:])

    def invoke(interp, env):
        full = path(env.cwd)
        if not env.host.fs.is_file(full):
            return 127, f"{argv[0]}: no such file\n"
        if background:
            env.host.spawn((full, *args), background=True)
            return 0, ""
        if full.endswith(".sh"):
            return interp.run_script_file(env.host, full, args=args,
                                          parent_env=env)
        process = env.host.spawn((full, *args), background=False)
        process.alive = False
        return 0, ""
    return invoke
