"""
The family one matrix dimension up
==================================

The construction generalizes to n x n matrix fields on S^{2n}: a has
first column z/(1 + i zn), b has first row conj(z)/(1 + i zn), and the
same closed forms hold -- 1 - 2ba = diag(phi(zn), 1, ..., 1) and
1 - 2ab = I - 2 z z^H/(1 + i zn)^2. The script verifies this algebraic
layer for n = 2 and n = 3 (the n = 2 evaluators reproduce the 2x2
construction bit for bit). The homotopy obstruction in higher dimensions
is not re-certified here.
"""

import numpy as np

from expspec import eval_a_n, eval_b_n, family_identity_check, field_a, field_b, mesh_s2n, mesh_s4

for n, params in ((2, (9, 4, 8)), (3, (9, 3, 6))):
    mesh = mesh_s2n(n, *params)
    residual = family_identity_check(n, mesh)
    print(f"n = {n}: {len(mesh):6d} mesh points on S^{2 * n}, identity residual {residual:.3e}")

# bit-identity of the n = 2 family with the 2x2 evaluators; an (N, 2, 2)
# stack flattens row-major to the Field planes m00, m01, m10, m11
m4 = mesh_s4(9, 8)
z0, z1, z2 = m4.arrays()
z = np.stack([z0, z1], axis=-1)
same_a = np.array_equal(eval_a_n(z, z2).reshape(-1, 4).T, field_a(z0, z1, z2))
same_b = np.array_equal(eval_b_n(z, z2).reshape(-1, 4).T, field_b(z0, z1, z2))
print(f"n = 2 evaluators bit-identical to the 2x2 construction: a={same_a}, b={same_b}")

# negative control: dropping the conjugation in b must wreck the identities
mesh3 = mesh_s2n(3, 9, 3, 6)
bad = family_identity_check(3, mesh3, _conjugate=False)
print(f"sabotaged b (missing conjugate): residual {bad:.3f} -- detected")
