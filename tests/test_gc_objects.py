"""How many objects saturation and solving leave for the cyclic GC.

Every full collection walks each GC-tracked object that survives, so a
large analysis pays for each object a saturated transition keeps alive.
The count is taken in a fresh interpreter, where no test's objects add
to it; it counts objects, not time, so it does not depend on the host.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pdsflow
from instances import recursive_icfg_text

# Objects per saturated transition: 7.6 with Const and Var factors in
# every constraint, 4.8 with constraints that hold transitions directly,
# 3.8 once saturation no longer keeps a trace record per added transition.
MAX_OBJECTS_PER_TRANSITION = 4.0

COUNT = """
import gc, json, sys
from pdsflow import Configuration, encode_icfg, load_icfg, pre_star, solve_least
from pdsflow.automaton import PRE
from pdsflow.cli import single_config_automaton

pds = encode_icfg(load_icfg(sys.stdin.read()))
aut = single_config_automaton(pds, Configuration("p", ("P0_8",)), PRE)
gc.collect()
before = len(gc.get_objects())
result = pre_star(pds, aut)
sol = solve_least(result.constraints, pds.algebra)
gc.collect()
print(json.dumps([len(gc.get_objects()) - before,
                  len(result.automaton.transitions)]))
"""


def test_saturation_and_solving_leave_few_tracked_objects():
    text = recursive_icfg_text(random.Random(1), procedures=1024)
    env = dict(os.environ, PYTHONPATH=str(Path(pdsflow.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", COUNT], input=text, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    objects, transitions = json.loads(done.stdout)
    assert transitions > 3000
    assert objects / transitions < MAX_OBJECTS_PER_TRANSITION
