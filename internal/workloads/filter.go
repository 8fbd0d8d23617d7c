package workloads

import (
	"math"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
)

// Filter: 3×3 edge-detection convolution over a grayscale image (Table 2).
// Paper input: 500×500; scaled input: 96×96 (in+out ≈ 147 KB, several times
// the 32 KB L1). Each thread strides over interior pixels and gathers its
// 3×3 neighbourhood — no data-dependent branches (the paper measures 0 %
// divergent branches) but highly divergent memory accesses (88 %).
const (
	filterW = 96
	filterH = 96
)

// filterKernel ABI: R4=&in, R5=&out, R7=interiorW, R8=interiorCount.
// The image width is baked into the load offsets like a compiler would.
func filterKernel(width, height, maxThreads int) *program.Program {
	b := program.NewBuilder("filter")
	w := int64(width)
	b.DeclareRegion(4, w*int64(height))
	b.DeclareRegion(5, w*int64(height))
	iw := w - 2
	b.DeclareUniformRange(7, iw, iw)
	b.DeclareUniformRange(8, iw*int64(height-2), iw*int64(height-2))
	b.DeclareThreads(maxThreads)
	b.Mov(9, 1) // p = tid
	b.Label("loop")
	b.Slt(10, 9, 8)
	b.Beqz(10, "done")
	b.Div(11, 9, 7)
	b.Rem(12, 9, 7)
	b.Addi(11, 11, 1) // y
	b.Addi(12, 12, 1) // x
	b.Muli(13, 11, w)
	b.Add(13, 13, 12)
	b.Shli(13, 13, 3) // byte offset of centre
	b.Add(14, 4, 13)  // centre address
	b.Ld(15, 14, 0)   // centre value
	// Accumulate the 8 neighbours.
	b.Ld(16, 14, -(w+1)*8)
	b.Ld(17, 14, -w*8)
	b.Fadd(16, 16, 17)
	b.Ld(17, 14, -(w-1)*8)
	b.Fadd(16, 16, 17)
	b.Ld(17, 14, -8)
	b.Fadd(16, 16, 17)
	b.Ld(17, 14, 8)
	b.Fadd(16, 16, 17)
	b.Ld(17, 14, (w-1)*8)
	b.Fadd(16, 16, 17)
	b.Ld(17, 14, w*8)
	b.Fadd(16, 16, 17)
	b.Ld(17, 14, (w+1)*8)
	b.Fadd(16, 16, 17)
	// out = |8*c - sum| (discrete Laplacian magnitude).
	b.Fmovi(18, 8.0)
	b.Fmul(19, 15, 18)
	b.Fsub(19, 19, 16)
	b.Fabs(19, 19)
	b.Add(20, 5, 13)
	b.St(19, 20, 0)
	b.Add(9, 9, 2)
	b.Jmp("loop")
	b.Label("done")
	b.Halt()
	return b.MustVerify()
}

// prepareFilter prepares the Filter benchmark; scale multiplies the image
// height (96×96·scale pixels).
func prepareFilter(scale, capacity int) *prepared {
	im := mem.NewImage()
	w, h := filterW, filterH*scale
	in := im.AllocWords(w * h)
	out := im.AllocWords(w * h)

	img := make([]float64, w*h)
	for i := range img {
		// A deterministic synthetic image with edges: tiles plus gradient.
		x, y := i%w, i/w
		img[i] = float64((x/8+y/8)%2)*100 + float64(x%8) + 0.5*float64(y%8)
	}
	im.Set(in, bits(img))

	iw := w - 2
	count := iw * (h - 2)
	nt := threadsFor(capacity, count)
	step := launch(filterKernel(w, h, nt), nt, func(tid int, r *isa.RegFile) {
		r.Set(4, int64(in))
		r.Set(5, int64(out))
		r.Set(7, int64(iw))
		r.Set(8, int64(count))
	})

	// The kernel writes the interior; the border stays zero.
	want := make([]float64, w*h)
	for y := 1; y < h-1; y++ {
		for x := 1; x < w-1; x++ {
			c := img[y*w+x]
			sum := img[(y-1)*w+x-1] + img[(y-1)*w+x] + img[(y-1)*w+x+1] +
				img[y*w+x-1] + img[y*w+x+1] +
				img[(y+1)*w+x-1] + img[(y+1)*w+x] + img[(y+1)*w+x+1]
			want[y*w+x] = math.Abs(8*c - sum)
		}
	}
	return &prepared{steps: []launchSpec{step}, image: im, outputs: []output{{"out", out, bits(want), relative}}}
}
