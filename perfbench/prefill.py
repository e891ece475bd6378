"""Fill a hierarchy cache directory in a process of its own.

    python3 perfbench/prefill.py --config NAME --cache-dir DIR [--spans FILE]

Runs ``build_artifacts`` once, so the directory holds the cache a warm
start reads.  With ``--spans`` the build is traced and its spans are
written to FILE as JSON lines.  Prints the content hash.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import common


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    try:
        common.import_chplanner()
    except common.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from chplanner import cli, traffic

    import spans

    config = traffic.load_config(args.config)
    if args.spans is None:
        _, _, content_hash = cli.build_artifacts(config, args.cache_dir)
    else:
        tracer = spans.Tracer()
        tracer.group = "prefill"
        with tracer:
            _, _, content_hash = cli.build_artifacts(config, args.cache_dir)
        tracer.dump(Path(args.spans))
    print(content_hash)
    return 0


if __name__ == "__main__":
    sys.exit(main())
