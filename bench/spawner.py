"""Launch cli-batch items from a small process and report their wait4 rusage.

On Linux a child's peak RSS (ru_maxrss) starts from the RSS of the process it
was forked from, and exec keeps it.  Forked straight from the benchmark, whose
own RSS is larger than most items, every item would report the benchmark's
RSS.  This launcher stays small, so the peak it reports is the item's own.

Protocol: one JSON request per stdin line (cmd, env, cwd, stdout, stderr
paths); one JSON reply per stdout line (exit code, wall seconds, peak RSS in
KiB).  It exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["cmd"], stdout=out, stderr=err,
                                    env=request["env"], cwd=request["cwd"])
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"code": proc.returncode, "wall_s": wall, "maxrss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
