"""Test double for the line-protocol discipline adapter.

Usage: python child_worker.py MODE [K | PATH]
Modes:
    double    y_out = 2 * z
    sum       y_out = [z[0] + y_in[0]]
    id        y_out = [request id]
    error     status=error with a message
    error-odd status=error on odd ids, otherwise as double
    crash     answer K requests as double (default 0), then exit mid-request
    sleep     never respond
    garbage   write a non-JSON line
    wrong-id  respond with a mismatched id
    echo-keys report the sorted request keys in the message
    trickle   answer as double, one byte every 50 ms
    tee       append each request line, byte for byte, to PATH; answer [0.0]
    replay    answer request k with line k of PATH, byte for byte, with $ID
              replaced by the request id
"""

import json
import sys
import time


def main():
    mode = sys.argv[1]
    answers_left = int(sys.argv[2]) if len(sys.argv) > 2 and mode == "crash" else 0
    if mode == "replay":
        with open(sys.argv[2], "rb") as fh:
            replies = fh.read().split(b"\n")
    for k, line in enumerate(sys.stdin.buffer):
        request = json.loads(line)
        if mode == "tee":
            with open(sys.argv[2], "ab") as fh:
                fh.write(line)
        if mode == "replay":
            sys.stdout.buffer.write(replies[k].replace(b"$ID", str(request["id"]).encode()) + b"\n")
            sys.stdout.buffer.flush()
            continue
        if mode == "crash":
            if answers_left == 0:
                sys.exit(3)
            answers_left -= 1
        if mode == "sleep":
            time.sleep(60.0)
        if mode == "garbage":
            sys.stdout.write("this is not json\n")
            sys.stdout.flush()
            continue
        response = {"id": request["id"], "status": "ok", "y_out": [], "message": ""}
        if mode in ("double", "trickle", "crash") or (mode == "error-odd" and request["id"] % 2 == 0):
            response["y_out"] = [2.0 * v for v in request["z"]]
        elif mode == "sum":
            response["y_out"] = [request["z"][0] + request["y_in"][0]]
        elif mode == "id":
            response["y_out"] = [float(request["id"])]
        elif mode in ("error", "error-odd"):
            response = {"id": request["id"], "status": "error", "y_out": [], "message": "remote solver blew up"}
        elif mode == "wrong-id":
            response["id"] = request["id"] + 17
            response["y_out"] = [0.0]
        elif mode == "tee":
            response["y_out"] = [0.0]
        elif mode == "echo-keys":
            response["y_out"] = [0.0]
            response["message"] = ",".join(sorted(request.keys()))
        if mode == "trickle":
            for ch in json.dumps(response) + "\n":
                sys.stdout.write(ch)
                sys.stdout.flush()
                time.sleep(0.05)
            continue
        sys.stdout.write(json.dumps(response) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
