"""The ``remote_oltp`` server process.

``python -m repro.session`` cannot choose the flush policy, build the data
or hand out its counters, so the benchmark starts this launcher instead
(``python -m benchmarks.e2e.serve``, with the repository root and ``src``
on ``PYTHONPATH``).  It builds the university database in ``--path``,
checkpoints, serves it on an ephemeral port and then obeys one-line
commands on standard input, answering each with one line on standard
output:

    snapshot FILE   write ``Database.metrics_snapshot()`` as JSON
    reset           forget the spans recorded so far
    spans FILE      write the recorded spans (only with ``--trace``)
    quit            stop serving and close the database

End of input means the benchmark is gone, and the server exits too, so a
crashed benchmark never leaves a server behind.  The benchmark ends a
measured run with SIGKILL, not ``quit``: that is the crash whose recovery
it times.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from benchmarks.e2e import trace


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e.serve")
    parser.add_argument("--path", required=True)
    parser.add_argument("--students", type=int, required=True)
    parser.add_argument("--courses", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    recorder = trace.Recorder()
    if args.trace:
        # before the Database exists: it stores ``wal.commit`` as a bound
        # method at construction, which a later patch would not reach
        recorder.install(trace.ENGINE_TARGETS)

    from repro.relational.database import Database
    from repro.session.manager import SessionConfig
    from repro.session.server import DatabaseServer
    from repro.workloads import build_university

    db = Database(path=args.path, fsync=True)
    build_university(db, students=args.students, courses=args.courses, seed=args.seed)
    db.checkpoint()
    recorder.clear()  # the load is set-up, not traffic
    server = DatabaseServer(db, port=0, config=SessionConfig(max_sessions=8))
    server.start()
    print(f"listening {server.address[1]}", flush=True)
    try:
        for line in sys.stdin:
            command, _, argument = line.strip().partition(" ")
            if command == "snapshot":
                with open(argument, "w", encoding="utf-8") as handle:
                    json.dump(db.metrics_snapshot(), handle, default=str)
            elif command == "reset":
                recorder.clear()
            elif command == "spans":
                recorder.dump(argument)
            elif command == "quit":
                break
            else:
                print(f"error unknown command {command!r}", flush=True)
                continue
            print("ok", flush=True)
    finally:
        server.stop()
        db.close()
        recorder.uninstall()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
