#!/usr/bin/env python3
"""Write the stored copy of the restored probe image that the restore-fog
check compares against (``reference/restore_probe.npy``).

    python3 perfbench/make_reference.py

Run it only when a change to ResLPRNet is meant to change its output.
"""
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402

from workloads import PROBE_PATH, probe_net, probe_output  # noqa: E402

if __name__ == "__main__":
    os.makedirs(os.path.dirname(PROBE_PATH), exist_ok=True)
    np.save(PROBE_PATH, probe_output(probe_net()).astype("<f4"))
    print(f"wrote {PROBE_PATH}")
