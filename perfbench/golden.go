package main

// goldenSeed is the paper's default workload seed; every run checks the
// system's output at this seed against the digests below.
const goldenSeed = 42

// goldenSuite is the SHA-256 of hcappsim's stdout for the suite batch
// (fig4,fig5,fig10, -dur 2) at goldenSeed.
const goldenSuite = "c3f283f1adea95c3ab3ce9c7ba167714e039a31520f8c5850d89dfc8c97a5c64"

// goldenJobs maps each Table 3 combo to the SHA-256 of the canonical
// JSON (see canonicalResult) of hcapp-serve's result for a 0.2 ms HCAPP
// job at goldenSeed.
var goldenJobs = map[string]string{
	"Burst-Burst": "90e0b74124f725a976b029ee6677a8d88fa0e89e2d6c2eae1f02191541e3a8fc",
	"Burst-Low":   "ecf4ebc37f2516138f2549f57241024b5e47b3d7f2602e9d9c033812e0d48542",
	"Const-Burst": "eb6b9954f57e941bd213278cb6cfeb583dc24ffa97fc6c2383513bca2e3a3108",
	"Hi-Hi":       "49eba03d117024ecba50b3343f2e5bce8b8b3d40b8734b3fb02b383408018cb0",
	"Hi-Low":      "570da418f31fc8cbef56041bae27f6fc6a5446649b62b2a10671396c0e11add2",
	"Low-Hi":      "bfa9bd226dbab2fb8245b4d91d4f11b7e5e07e769264d45c3bd88e7ad401e012",
	"Low-Low":     "48aa0e389964a83c1552fd57d2f72620d00de8ea042a783897fb5b711790b30a",
	"Mid-Mid":     "9c30532e05abbb695b8962d59e4609a9730283cbb5103dd5ba4ec3b7a656a856",
}
