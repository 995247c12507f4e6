"""
Homotopy certificates: where the two products part ways
=======================================================

The exponential spectrum sees what the spectrum cannot. 1 - 2ba is
connected to the identity through invertibles by the explicit path
diag(phi((1-t) z2 + t), 1) -- an unconditional machine check. For
1 - 2ab = c the script assembles the obstruction evidence: its
normalized second column f agrees with the suspended Hopf map Eh on the
equator, both maps preserve hemispheres, they are never antipodal (so f
is homotopic to Eh), and the Hopf map itself has linking number +-1.
One classical step (suspension preserves essentialness) is carried as
the certificate's single explicit assumption.

build_certificates returns one check record per bound of the evidence
and, only when every record passes, the two certificates (None
otherwise).
"""

from expspec import build_certificates, mesh_s4

mesh = mesh_s4(33, 32)
records, (ba_cert, ab_cert) = build_certificates(mesh, segments=256)

print("certificate for 1-2ba:")
print(ba_cert.to_json())
print()
print("certificate for 1-2ab:")
print(ab_cert.to_json())
print()
print("Together: 1/2 is outside the exponential spectrum of ba but, modulo the")
print("stated suspension assumption, inside the exponential spectrum of ab --")
print("while both ordinary spectra are the same circle. The exponential")
print("spectrum is not commutative.")
