"""One fresh-interpreter gsops process, started by run.py.

    python3 perfbench/child.py setup
        import gsops.cli and build its parser, then exit (the setup_s probe);
    python3 perfbench/child.py run -- <gsops arguments>
        run the gsops CLI, as the ``gsops`` console script would;
    python3 perfbench/child.py trace <spans.json> <invocation> -- <gsops arguments>
        the same with the tracer installed; spans are written at exit.

gsops is imported from ``src/`` of the checkout that holds this file, never
from an installed copy; the process exits with code 3 when it cannot be.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
EXIT_NO_PROGRAM = 3


def _import_cli():
    sys.path.insert(0, SRC)
    try:
        import gsops.cli
    except ImportError as exc:
        print(f"perfbench: cannot import gsops from {SRC}: {exc}", file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    if not os.path.abspath(gsops.cli.__file__).startswith(SRC + os.sep):
        print(f"perfbench: gsops imported from {gsops.cli.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    return gsops.cli


def main(argv: list[str]) -> int:
    mode = argv[0] if argv else ""
    if mode == "setup":
        _import_cli().build_parser()
        return 0
    gsops_argv = argv[argv.index("--") + 1:] if "--" in argv else []
    if mode == "run":
        return _import_cli().main(gsops_argv)
    if mode == "trace":
        spans_path, invocation = argv[1], argv[2]
        cli = _import_cli()
        import tracer

        t = tracer.Tracer(invocation)
        t.install()
        try:
            return t.wrap("cli.main", cli.main)(gsops_argv)
        finally:
            sys.stdout.flush()
            t.dump(spans_path)
    print(f"perfbench: unknown child mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
