package main

// seedOnePins are the input digests every workload must reproduce at
// seed 1, so that an edit to a generator (RandomCircuit, the pair
// sampler, the request stream) or to a committed circuit cannot silently
// change what a workload measures. grade-10k also pins the Coverage of its
// 256 pairs, which any correct grader reproduces.
var seedOnePins = map[string]map[string]string{
	"grade-10k": {
		"circuit_fingerprint": "8174e8acb41ae2644893c5f8d55d6551bfb676428bea29341f1f0a12a7337720",
		"coverage_sha256":     "6afcd8bc38fe4c64dfd20e1fbb7c3ee2276067ac200b5de8d7be2eca9698b2ee",
		"pairs_sha256":        "83fe49eb12d7d58ee7f49440ee0c7ff8d31632cba6d3cd51d09e9e06a8e84f6e",
	},
	"atpg-c432": {
		"circuit_fingerprint": "d72b06b3017bc3b07a7745e7a206e3dda6b0a8b45f8848dc632ee411849f800f",
		"fault_order_sha256":  "81bbb192ed498521e910996458a2a3cde28e54ee93def853ec97153c05df8f76",
	},
	"prove-c432": {
		"circuit_fingerprint": "d72b06b3017bc3b07a7745e7a206e3dda6b0a8b45f8848dc632ee411849f800f",
		"fault_order_sha256":  "6e74cfc16d84d573760dff39c0e592feaa408241586c6edc8264ee6605d8b80b",
	},
	"scan-s27": {
		"circuit_fingerprint": "18fdcc2f1e4bed881e6177c0fdc8802710895af65186342b6648bd9fc91284cf",
		"fault_order_sha256":  "f0b4b6724be7aee637c84b67e59c3de0e85a7853b5827746c8123a736d99a643",
	},
	"serve-mix": {
		"hot_bodies_sha256":    "40fa850874c20db6936fcfcfef2f95fb6e49d02511e0212cf5083eecd77f1115",
		"stream_prefix_sha256": "0cf972982329a678d05db48c4a510f6fe831a797e5526530975749d9d811ec93",
	},
}
