import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig

import pytest

sys.path.insert(0, os.path.dirname(__file__))

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="session")
def compiled(tmp_path_factory):
    """The C backend, built by the install recipe (``setup.py build_ext``)
    into a temporary directory and loaded as ``scdec._kernels._cykernels``.

    Skips only when no C compiler is on PATH; with one, a failed build fails
    every test that asks for this fixture.  Nothing is written under ``src``.
    """
    cc = (os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(cc) is None:
        pytest.skip(f"no C compiler ({cc}) on PATH")
    out = tmp_path_factory.mktemp("kernels")
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--build-lib", str(out / "lib"),
         "--build-temp", str(out / "tmp")],
        cwd=ROOT, capture_output=True, text=True)
    built = sorted((out / "lib").rglob("_cykernels*" + sysconfig.get_config_var("EXT_SUFFIX")))
    if proc.returncode or not built:
        pytest.fail(f"building the C kernels failed:\n{proc.stdout}\n{proc.stderr}")
    spec = importlib.util.spec_from_file_location("scdec._kernels._cykernels", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
