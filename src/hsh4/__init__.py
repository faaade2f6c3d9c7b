"""4D hyperspherical harmonics, O(4) coupling coefficients and multipole
expansions.

This package imports the analytic route only.  The quadrature oracle that
checks it lives in ``hsh4.verify``, the one module that loads scipy.
"""

from .special import (SeriesControl, DEFAULT_SERIES, ConvergenceError,
                      hyp0f1, hyp2f1, pochhammer)
from .angular import cgc3, wigner6j, wigner9j, gen_character, mod_sph_harm
from .harmonics import (HyperAngles, to_hyperangles, from_hyperangles,
                        hyp_components, hsh_h, hsh_c, hsh_y, h_components,
                        c_components, c_table, h_flat_index, c_flat_index,
                        h_to_c_matrix, c_from_h, h_from_c, scalar_product_h,
                        scalar_product_c, cos4)
from .coupling import (cgc4_h, cgc4_c, cgc4_c_closed, ninej4, ninej4_closed,
                       bipolar, bipolar_values, bipolar_plan,
                       linearize_product, rank_triangle_ok)
from .multipole import (ExpansionSpec, CoeffTable, admissible_pair,
                        plane_wave_radial, scalar_power_coeff,
                        laplacian_power, b_coeff, expand_translated,
                        expand_radial_function, eval_expansion)

__version__ = "0.1.0"
