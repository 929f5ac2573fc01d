"""Project metadata and packaging.

This file is the project's metadata: there is no ``pyproject.toml``.  Install
with ``pip install -e .``; where the ``wheel`` package required by PEP 517
editable builds is missing, use
``pip install -e . --no-use-pep517 --no-build-isolation``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of B-Neck: a distributed and quiescent max-min fair algorithm"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
)
