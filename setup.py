"""Packaging of the repro tool chain.

Installable with ``pip install -e .`` (or plain ``python setup.py develop``
in offline environments without wheel); exposes the ``repro`` console script
wired to :func:`repro.cli.main`.
"""

import os
import re

from setuptools import find_packages, setup

with open(os.path.join(os.path.dirname(__file__), "src", "repro", "__init__.py"), encoding="utf-8") as _init:
    VERSION = re.search(r'__version__ = "([^"]+)"', _init.read()).group(1)

setup(
    name="repro-aadl-polychrony",
    version=VERSION,
    description=(
        "Polychronous analysis and validation for timed software architectures "
        "in AADL: AADL front-end, AADL-to-SIGNAL translation, scheduler "
        "synthesis, clock calculus, execution-plan simulation engine and "
        "profiling (DATE 2013 reproduction)"
    ),
    long_description=(
        "A from-scratch Python reproduction of the DATE 2013 tool chain for "
        "polychronous analysis of AADL models: capture, validation, "
        "ASME2SSME translation to SIGNAL process models, static scheduler "
        "synthesis exported to affine clocks, formal analyses (clock "
        "calculus, determinism, deadlock), simulation over pluggable "
        "backends (reference fixed-point interpreter, compiled execution "
        "plans and numpy-vectorized block execution, with batched "
        "multi-scenario runs), VCD traces and profiling-based performance "
        "estimation."
    ),
    long_description_content_type="text/plain",
    author="paper-repo-growth",
    license="MIT",
    packages=find_packages("src"),
    package_dir={"": "src"},
    python_requires=">=3.8",
    extras_require={
        # The vectorized simulation backend soft-depends on numpy: without
        # it the backend degrades to the compiled execution plan.
        "vectorized": ["numpy"],
    },
    entry_points={
        "console_scripts": [
            "repro=repro.cli:main",
        ],
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "License :: OSI Approved :: MIT License",
        "Programming Language :: Python :: 3",
        "Topic :: Scientific/Engineering",
        "Topic :: Software Development :: Embedded Systems",
    ],
)
