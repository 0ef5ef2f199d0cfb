#!/usr/bin/env python3
"""Validate a Chrome trace_event JSON file exported by the span layer.

Used by the CI `trace-validate` job: a seeded cluster run must produce a
well-formed, Perfetto-loadable document. Checks:

  * the file parses as JSON with a non-empty ``traceEvents`` array;
  * every event carries ``ph``/``name``/``pid``/``tid``;
  * every complete ("X") event has numeric ``ts``/``dur`` >= 0;
  * every instant ("i") event has a numeric ``ts`` >= 0 and a scope ``s``
    of "g", "p" or "t";
  * at least one "X" event exists (metadata alone is not a trace).

Exit 0 on success, 1 with a diagnostic on the first violation.
"""
import json
import sys


def fail(message: str) -> None:
    print(f"validate_trace: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check_time(index: int, event: dict, key: str) -> None:
    value = event.get(key)
    if not isinstance(value, (int, float)) or value < 0:
        fail(f"event {index}: bad '{key}': {value!r}")


def main() -> None:
    if len(sys.argv) != 2:
        fail(f"usage: {sys.argv[0]} <trace.json>")
    path = sys.argv[1]
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        fail(f"{path}: {error}")

    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: traceEvents missing or empty")

    complete = 0
    instants = 0
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            fail(f"event {index}: not an object")
        for key in ("ph", "name", "pid", "tid"):
            if key not in event:
                fail(f"event {index}: missing '{key}'")
        if event["ph"] == "X":
            complete += 1
            check_time(index, event, "ts")
            check_time(index, event, "dur")
        elif event["ph"] == "i":
            instants += 1
            check_time(index, event, "ts")
            if event.get("s") not in ("g", "p", "t"):
                fail(f"event {index}: bad scope 's': {event.get('s')!r}")
    if complete == 0:
        fail(f"{path}: no complete ('X') span events")

    print(f"validate_trace: OK: {len(events)} events "
          f"({complete} spans, {instants} instants) in {path}")


if __name__ == "__main__":
    main()
