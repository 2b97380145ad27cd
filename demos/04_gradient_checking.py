"""Verify the analytic backward passes with central finite differences.

Every layer family ships a hand-derived backward; this drives the checker
over shrunken versions of all three convolutional architectures and the
dense baselines. Each check perturbs every single parameter twice, so it
only makes sense at toy sizes (a minute or so in total).
"""

import time

from csiloc import gradient_check
from csiloc.models import MODEL_KINDS, build_tiny
from csiloc.network import GRADCHECK_TOLERANCE

for kind in MODEL_KINDS:
    net, x, target = build_tiny(kind)
    tick = time.perf_counter()
    result = gradient_check(net, x, target, step=1e-6)
    verdict = "OK" if result.max_rel_err < GRADCHECK_TOLERANCE else "FAIL"
    print(f"{kind:6s} {result.n_params:5d} params  "
          f"max rel err {result.max_rel_err:.3e}  "
          f"({time.perf_counter() - tick:4.1f}s)  {verdict}")
    if verdict == "FAIL":
        print(f"        worst: {result.worst_param}[{result.worst_index}] "
              f"analytic {result.analytic:.6e} vs fd {result.fd:.6e}")
