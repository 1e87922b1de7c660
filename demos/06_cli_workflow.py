#!/usr/bin/env python3
"""The same pipeline driven through the command line.

Every subcommand is a thin shell over library calls; this script invokes
the CLI programmatically so the whole flow is reproducible in one run.
Equivalent shell session:

    wavevel generate --kind translating-gaussian --param velocity=0.7,0 \\
        --param sigma=3.5 --shape 64,64 --spacing 0.05 --origin=-1.575 \\
        --frames 5 --t0 -0.02 --dt 0.01 --out bump.wvf
    wavevel info bump.wvf
    wavevel velocity bump.wvf --order 1 --csv v1.csv
    wavevel scalar bump.wvf --csv scalar.csv
    wavevel track bump.wvf --attribute gradient-set --targets 0,0 \\
        --seed 32,32 --tol 1e-2
    wavevel covcheck --kind translating-gaussian --param velocity=0.7,0.2 \\
        --param sigma=2 --matrix 2,0.3,0.1,1.5 --offset 0.2,-0.1 \\
        --samples 60 --t 0.3
"""

import os
import tempfile

from wavevel.cli import cli

with tempfile.TemporaryDirectory(prefix="wavevel-cli-demo-") as outdir:
    bump = os.path.join(outdir, "bump.wvf")

    steps = [
        ["generate", "--kind", "translating-gaussian", "--param", "velocity=0.7,0",
         "--param", "sigma=3.5", "--shape", "64,64", "--spacing", "0.05",
         "--origin=-1.575", "--frames", "5", "--t0", "-0.02", "--dt", "0.01",
         "--out", bump],
        ["info", bump],
        ["velocity", bump, "--order", "1", "--csv", os.path.join(outdir, "v1.csv")],
        ["velocity", bump, "--order", "0", "--csv", os.path.join(outdir, "v0.csv")],
        ["scalar", bump, "--csv", os.path.join(outdir, "scalar.csv")],
        ["track", bump, "--attribute", "gradient-set", "--targets", "0,0",
         "--seed", "32,32", "--tol", "1e-2"],
        ["covcheck", "--kind", "translating-gaussian", "--param", "velocity=0.7,0.2",
         "--param", "sigma=2", "--matrix", "2,0.3,0.1,1.5", "--offset", "0.2,-0.1",
         "--samples", "60", "--t", "0.3"],
    ]

    for argv in steps:
        print(f"\n$ wavevel {' '.join(argv)}")
        code = cli(argv)
        if code != 0:
            raise SystemExit(f"step failed with exit code {code}")

    print(f"\nall artifacts in {outdir}")
