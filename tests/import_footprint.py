"""Importing qtoric.cli loads no code-generating machinery.

Run in a fresh interpreter, this script lists the modules that
``import qtoric.cli`` adds to ``sys.modules`` and exits 1, naming them, when
``dataclasses`` or ``inspect`` is among them.  It checks whichever qtoric the
interpreter finds: the checkout's with ``PYTHONPATH=src``, or an installed
package when run from a directory outside the checkout.
"""

import sys

FORBIDDEN = {"dataclasses", "inspect"}

before = set(sys.modules)
import qtoric.cli  # noqa: E402

added = set(sys.modules) - before
found = sorted(FORBIDDEN & added)
if found:
    sys.exit(f"import qtoric.cli ({qtoric.cli.__file__}) loads {', '.join(found)}")
print(f"import qtoric.cli ({qtoric.cli.__file__}) adds {len(added)} modules, "
      f"none of {', '.join(sorted(FORBIDDEN))}")
