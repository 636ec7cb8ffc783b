package dataset

// Config controls dataset generation. The three paper datasets are provided
// as preset constructors (TaobaoLike, MovieLensLike, AppStoreLike); Scale
// lets experiments shrink or grow every count uniformly.
type Config struct {
	Name string
	Seed int64

	// Universe sizes.
	NumUsers int
	NumItems int

	// Topics is m, the number of topics.
	Topics int
	// CoverageKind selects the geometry of τ_v per dataset:
	// GMM (Taobao), multi-hot normalized (MovieLens), one-hot (App Store).
	CoverageKind CoverageKind
	// Categories is the raw category count clustered by GMM when
	// CoverageKind == coverGMM (the Taobao path).
	Categories int
	// MaxGenres bounds how many genres a multi-hot item may carry.
	MaxGenres int

	// LatentDim is the dimension of the ground-truth user/item vectors.
	LatentDim int
	// UserDim / ItemDim are observable feature dimensions (q_u, q_v).
	UserDim, ItemDim int
	// FeatureNoise is the std of the Gaussian noise separating observable
	// features from latent vectors.
	FeatureNoise float64

	// Relevance model coefficients (see Dataset.Relevance).
	RelAffinity, RelTopical, RelBias float64

	// FocusedFrac is the fraction of users with narrow interests.
	FocusedFrac float64
	// FocusedTopics is how many topics a focused user concentrates on.
	FocusedTopics int
	// HistoryLen is the number of behavior-history events per user.
	HistoryLen int

	// RankerTrainPerUser is the number of pointwise interactions sampled
	// per user for initial-ranker training.
	RankerTrainPerUser int
	// NegativesPerPositive controls the sampled negative rate.
	NegativesPerPositive int

	// RerankRequests / TestRequests are the number of re-ranking requests
	// in the re-rank training and test splits.
	RerankRequests, TestRequests int
	// PoolSize is how many candidates are retrieved per request before the
	// initial ranker keeps the top ListLen.
	PoolSize int
	// ListLen is L, the initial list length fed to re-rankers.
	ListLen int

	// WithBids enables per-item bid prices (App Store / rev@k).
	WithBids bool
}

// CoverageKind enumerates the topic-coverage geometries used by the three
// datasets.
type CoverageKind int

// Coverage geometries.
const (
	// coverGMM derives probabilistic coverage by clustering raw category
	// embeddings with a Gaussian mixture (Taobao: 9,439 categories → 5
	// topics in the paper).
	coverGMM CoverageKind = iota
	// coverMultiHot assigns 1–MaxGenres genres and normalizes the
	// indicator vector (MovieLens genre vectors).
	coverMultiHot
	// coverOneHot assigns exactly one category (App Store).
	coverOneHot
)

// TaobaoLike mirrors the Taobao setup: m=5 topics from GMM-clustered
// categories, purchase-like sparse relevance.
func TaobaoLike(seed int64) Config {
	return Config{
		Name: "taobao", Seed: seed,
		NumUsers: 600, NumItems: 1200,
		Topics: 5, CoverageKind: coverGMM, Categories: 120,
		LatentDim: 8, UserDim: 13, ItemDim: 8, FeatureNoise: 0.2,
		RelAffinity: 2.6, RelTopical: 3.2, RelBias: -2.8,
		FocusedFrac: 0.5, FocusedTopics: 1, HistoryLen: 40,
		RankerTrainPerUser: 6, NegativesPerPositive: 3,
		RerankRequests: 1500, TestRequests: 600,
		PoolSize: 32, ListLen: 20,
	}
}

// MovieLensLike mirrors MovieLens-20M: m=20 genres, items carry 1–3 genres
// normalized, denser relevance.
func MovieLensLike(seed int64) Config {
	return Config{
		Name: "movielens", Seed: seed,
		NumUsers: 600, NumItems: 1200,
		Topics: 20, CoverageKind: coverMultiHot, MaxGenres: 3,
		LatentDim: 8, UserDim: 28, ItemDim: 8, FeatureNoise: 0.2,
		RelAffinity: 2.4, RelTopical: 3.5, RelBias: -2.6,
		FocusedFrac: 0.4, FocusedTopics: 2, HistoryLen: 48,
		RankerTrainPerUser: 6, NegativesPerPositive: 3,
		RerankRequests: 1500, TestRequests: 600,
		PoolSize: 32, ListLen: 20,
	}
}

// AppStoreLike mirrors the Huawei App Store: m=23 one-hot categories,
// per-item bids, revenue objective.
func AppStoreLike(seed int64) Config {
	return Config{
		Name: "appstore", Seed: seed,
		NumUsers: 600, NumItems: 800,
		Topics: 23, CoverageKind: coverOneHot,
		LatentDim: 8, UserDim: 31, ItemDim: 8, FeatureNoise: 0.2,
		RelAffinity: 2.6, RelTopical: 3.0, RelBias: -2.6,
		FocusedFrac: 0.45, FocusedTopics: 2, HistoryLen: 40,
		RankerTrainPerUser: 6, NegativesPerPositive: 3,
		RerankRequests: 1500, TestRequests: 600,
		PoolSize: 32, ListLen: 20,
		WithBids: true,
	}
}

// Scaled returns a copy of c with every count multiplied by f (minimum 1
// user/item, 8 requests). Used by benches and tests to shrink experiments.
func (c Config) Scaled(f float64) Config {
	scale := func(n int, lo int) int {
		v := int(float64(n) * f)
		if v < lo {
			v = lo
		}
		return v
	}
	c.NumUsers = scale(c.NumUsers, 8)
	// Keep at least a full pool's worth of items so retrieval can always
	// fill a candidate set.
	c.NumItems = scale(c.NumItems, c.PoolSize)
	c.RerankRequests = scale(c.RerankRequests, 8)
	c.TestRequests = scale(c.TestRequests, 8)
	if c.Categories > 0 {
		c.Categories = scale(c.Categories, c.Topics)
	}
	return c
}
