import os
import sys

# The benchmark imports the engine from the checkout's sources, not an install.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))
