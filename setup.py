"""Setuptools entry point.

A ``setup.py`` (rather than a pure ``pyproject.toml`` build-system table)
is kept deliberately: the target environment is offline and has no
``wheel`` package, so ``pip install -e .`` must take the legacy
``setup.py develop`` path, which needs neither network access nor wheel
building.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Parallel Hyperspectral Image Processing on "
        "Commodity Graphics Hardware' (ICPPW 2006): AMC morphological "
        "classification on a simulated stream-programming GPU"
    ),
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy>=1.24", "scipy>=1.10", "networkx>=3.0"],
    extras_require={"test": ["pytest", "pytest-benchmark", "hypothesis"]},
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
