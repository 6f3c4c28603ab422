#!/usr/bin/env python3
"""The --metrics-tcp scrape of a live amalgamd, end to end, with no curl.

    python3 ci/check_metrics_scrape.py build/amalgamd

Socket mode: starts `amalgamd --tcp 0 --metrics-tcp 0`, holds one silent
connection open on the metrics port, and checks that a second scrape still
returns amalgam_queries and that the daemon exits within EXIT_BOUND_S of a
{"op":"shutdown"} while the silent client stays connected. Stdio mode:
starts `amalgamd --stdio --metrics-tcp 0` and checks that a scrape reports
the stdio client as the one open connection. Exits 1 on any failure.
"""

import re
import socket
import subprocess
import sys

EXIT_BOUND_S = 5
SCRAPE_TIMEOUT_S = 5


def fail(msg):
    print("check_metrics_scrape: FAIL: " + msg, file=sys.stderr)
    sys.exit(1)


def ports_from_stderr(proc, *patterns):
    """Reads the daemon's stderr until every pattern matched a line, in
    any order; returns each pattern's port."""
    ports = {}
    for line in proc.stderr:
        for pattern in patterns:
            match = re.search(pattern, line)
            if match:
                ports[pattern] = int(match.group(1))
        if len(ports) == len(patterns):
            return [ports[pattern] for pattern in patterns]
    fail("the daemon exited before printing its ports")


TCP_LINE = r"listening on tcp:127\.0\.0\.1:(\d+)"
METRICS_LINE = r"metrics on http://127\.0\.0\.1:(\d+)"


def scrape(port):
    """One HTTP/1.1 GET; returns the body (the head is checked here)."""
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=SCRAPE_TIMEOUT_S) as conn:
        conn.sendall(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n")
        data = b""
        try:
            while True:
                chunk = conn.recv(65536)
                if not chunk:
                    break
                data += chunk
        except socket.timeout:
            fail("scrape of port %d timed out" % port)
    head, _, body = data.decode().partition("\r\n\r\n")
    if not head.startswith("HTTP/1.0 200 OK"):
        fail("unexpected response head: %r" % head)
    return body


def metric(body, name):
    match = re.search(r"^%s (\S+)$" % name, body, re.MULTILINE)
    if not match:
        fail("scrape body lacks " + name)
    return float(match.group(1))


def socket_mode(binary):
    proc = subprocess.Popen([binary, "--tcp", "0", "--metrics-tcp", "0"],
                            stderr=subprocess.PIPE, text=True)
    try:
        tcp_port, metrics_port = ports_from_stderr(proc, TCP_LINE, METRICS_LINE)
        silent = socket.create_connection(("127.0.0.1", metrics_port))
        metric(scrape(metrics_port), "amalgam_queries")
        with socket.create_connection(("127.0.0.1", tcp_port),
                                      timeout=SCRAPE_TIMEOUT_S) as client:
            client.sendall(b'{"id":1,"op":"shutdown"}\n')
            if b'"op":"shutdown"' not in client.recv(4096):
                fail("no shutdown ack")
        try:
            code = proc.wait(timeout=EXIT_BOUND_S)
        except subprocess.TimeoutExpired:
            fail("daemon still running %d s after the shutdown ack while a "
                 "silent scraper is connected" % EXIT_BOUND_S)
        silent.close()
        if code != 0:
            fail("daemon exited %d" % code)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def stdio_mode(binary):
    proc = subprocess.Popen([binary, "--stdio", "--metrics-tcp", "0"],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        (metrics_port,) = ports_from_stderr(proc, METRICS_LINE)
        body = scrape(metrics_port)
        metric(body, "amalgam_queries")
        for name in ("amalgam_connections_open", "amalgam_connections_opened"):
            if metric(body, name) != 1:
                fail("%s reads %g under --stdio, not 1" % (name, metric(body, name)))
        proc.stdin.close()  # EOF: the daemon drains and exits
        code = proc.wait(timeout=EXIT_BOUND_S)
        if code != 0:
            fail("stdio daemon exited %d" % code)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    socket_mode(sys.argv[1])
    stdio_mode(sys.argv[1])
    print("check_metrics_scrape: ok: a silent scraper blocked neither a "
          "scrape nor shutdown; stdio scrape counts one connection")


if __name__ == "__main__":
    main()
