"""Set-up cost in a fresh interpreter: import icfpie and build the first
scenario of a run (the reference seed). Prints the seconds it took."""

import time

t0 = time.perf_counter()

from icfpie import harness  # noqa: E402

harness.build_scenario(harness.ScenarioConfig(), harness.ScenarioConfig().seed)
print(time.perf_counter() - t0)
