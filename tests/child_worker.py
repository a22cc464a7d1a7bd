"""Test double for the line-protocol discipline adapter.

Usage: python child_worker.py MODE
Modes:
    double    y_out = 2 * z
    sum       y_out = [z[0] + y_in[0]]
    error     status=error with a message
    crash     exit mid-request without responding
    sleep     never respond
    garbage   write a non-JSON line
    wrong-id  respond with a mismatched id
    echo-keys report the sorted request keys in the message
    trickle   answer as double, one byte every 50 ms
"""

import json
import sys
import time


def main():
    mode = sys.argv[1]
    for line in sys.stdin:
        request = json.loads(line)
        if mode == "crash":
            sys.exit(3)
        if mode == "sleep":
            time.sleep(60.0)
        if mode == "garbage":
            sys.stdout.write("this is not json\n")
            sys.stdout.flush()
            continue
        response = {"id": request["id"], "status": "ok", "y_out": [], "message": ""}
        if mode in ("double", "trickle"):
            response["y_out"] = [2.0 * v for v in request["z"]]
        elif mode == "sum":
            response["y_out"] = [request["z"][0] + request["y_in"][0]]
        elif mode == "error":
            response = {"id": request["id"], "status": "error", "y_out": [], "message": "remote solver blew up"}
        elif mode == "wrong-id":
            response["id"] = request["id"] + 17
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
