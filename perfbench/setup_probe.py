"""Set-up probe: one tomebench CLI invocation, stopped at its first denoise step.

Usage: python3 perfbench/setup_probe.py <tomebench CLI arguments>

Prints CLOCK_MONOTONIC in nanoseconds at the moment the first U-Net
evaluation starts and exits at once, so the caller can time process start
(import, CLI parse, config, resolve, init_unet) up to the first denoise step.
Exits 3 if the invocation ends without reaching a denoise step.
"""

import os
import sys
import time


def _first_step(*args, **kwargs):
    os.write(1, b"%d\n" % time.monotonic_ns())
    os._exit(0)


if __name__ == "__main__":
    from tomebench import cli, unet

    unet.UNetModel.forward = _first_step
    code = cli.main(sys.argv[1:])
    print(f"setup probe: no denoise step reached (exit {code})", file=sys.stderr)
    sys.exit(3)
