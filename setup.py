from setuptools import find_packages, setup

setup(
    name="asv-repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy", "scipy"],
    python_requires=">=3.10",
)
