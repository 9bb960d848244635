"""Run the zicobc CLI with spans recorded around every layer's functions.

    python3 traced_cli.py SPANS.json [zicobc arguments...]

Imports zicobc first, as the console script does, wraps its public
functions (spans.instrument), runs zicobc.cli.main on the arguments and
writes the recorded spans to SPANS.json, also when the command fails.
"""

import sys

import zicobc.cli

import spans

recorder = spans.Recorder()
spans.instrument(recorder)
try:
    code, _ = recorder.call("cli.main", zicobc.cli.main, (sys.argv[2:],))
finally:
    recorder.dump(sys.argv[1])
sys.exit(code)
