"""Traced CLI stage: ``python cli_launcher.py SPANS_JSON STAGE_ARGS...``.

Installs the span wrappers on ``dopplerkb.cli`` and the library modules,
runs ``dopplerkb.cli.main(STAGE_ARGS)``, writes the spans to SPANS_JSON and
exits with the stage's exit code.
"""

import sys

import tracing


def main(argv) -> int:
    tracer = tracing.Tracer()
    span = tracer.begin("cli.import")
    import dopplerkb.cli

    tracer.end(span)
    tracing.install(tracer, tracing.cli_targets())
    span = tracer.begin("cli.main")
    try:
        code = dopplerkb.cli.main(argv[2:])
    finally:
        tracer.end(span)
        tracer.dump(argv[1])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
